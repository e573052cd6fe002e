/**
 * @file
 * JSON parser tests: round-tripping JsonWriter output and rejecting
 * malformed documents (the parser exists to validate what the
 * observability layer itself writes), plus jsonNumber's bytes pinned
 * against the plain precision search it replaced.
 */

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.hh"

namespace dfault::obs {
namespace {

TEST(JsonParse, RoundTripsJsonWriterOutput)
{
    JsonWriter inner;
    inner.field("path", "sweep.measure");
    inner.field("count", std::uint64_t{7});

    JsonWriter w;
    w.field("label", "srad \"par\"\nline");
    w.field("wer", 1.5e-9);
    w.field("crashed", false);
    w.field("epochs", std::int64_t{-3});
    w.fieldRaw("args", inner.str());
    w.fieldRaw("series", "[1,2.5,null,true]");

    std::string error;
    const auto doc = jsonParse(w.str(), &error);
    ASSERT_TRUE(doc.has_value()) << error;
    ASSERT_TRUE(doc->isObject());

    EXPECT_EQ(doc->find("label")->string, "srad \"par\"\nline");
    EXPECT_DOUBLE_EQ(doc->find("wer")->number, 1.5e-9);
    EXPECT_FALSE(doc->find("crashed")->boolean);
    EXPECT_DOUBLE_EQ(doc->find("epochs")->number, -3.0);

    const JsonValue *args = doc->find("args");
    ASSERT_NE(args, nullptr);
    EXPECT_EQ(args->find("path")->string, "sweep.measure");
    EXPECT_DOUBLE_EQ(args->find("count")->number, 7.0);

    const JsonValue *series = doc->find("series");
    ASSERT_NE(series, nullptr);
    ASSERT_TRUE(series->isArray());
    ASSERT_EQ(series->array.size(), 4u);
    EXPECT_DOUBLE_EQ(series->array[1].number, 2.5);
    EXPECT_TRUE(series->array[2].isNull());
    EXPECT_TRUE(series->array[3].boolean);
}

TEST(JsonParse, DecodesStringEscapes)
{
    const auto doc =
        jsonParse(R"({"s":"tab\thereA\\\"\/é"})");
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(doc->find("s")->string, "tab\thereA\\\"/\xc3\xa9");
}

TEST(JsonParse, ParsesNumbersAndWhitespace)
{
    const auto doc = jsonParse(" { \"a\" : -0.5 , \"b\" : 1e3 } ");
    ASSERT_TRUE(doc.has_value());
    EXPECT_DOUBLE_EQ(doc->find("a")->number, -0.5);
    EXPECT_DOUBLE_EQ(doc->find("b")->number, 1000.0);
}

TEST(JsonParse, DecodesUnicodeEscapesToUtf8)
{
    const auto doc = jsonParse(R"({"s":"\u0041\u00e9\u20ac"})");
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(doc->find("s")->string, "A\xc3\xa9\xe2\x82\xac");
}

TEST(JsonParse, DuplicateKeysLastOneWins)
{
    const auto doc = jsonParse(R"({"k":1,"k":2})");
    ASSERT_TRUE(doc.has_value());
    EXPECT_DOUBLE_EQ(doc->find("k")->number, 2.0);
}

TEST(JsonParse, RejectsMalformedDocuments)
{
    const char *bad[] = {
        "",
        "{",
        "[1,]",
        "{\"a\":}",
        "{\"a\":1,}",
        "nul",
        "\"unterminated",
        "{\"a\":1} trailing",
        "{'a':1}",
    };
    for (const char *text : bad) {
        std::string error;
        EXPECT_FALSE(jsonParse(text, &error).has_value())
            << "accepted: " << text;
        EXPECT_FALSE(error.empty()) << text;
    }
}

/**
 * The original jsonNumber, kept verbatim as the oracle: the shortest
 * %.{p}g for p in 1..16 that sscanf parses back, else %.17g.
 * Checkpoints, journals and manifests written by it must keep their
 * bytes.
 */
std::string
oracleJsonNumber(double value)
{
    if (!std::isfinite(value))
        return "null";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    for (int prec = 1; prec < 17; ++prec) {
        char shorter[32];
        std::snprintf(shorter, sizeof(shorter), "%.*g", prec, value);
        double parsed = 0.0;
        std::sscanf(shorter, "%lf", &parsed);
        if (parsed == value)
            return shorter;
    }
    return buf;
}

/**
 * Count of @p values whose jsonNumber differs from the oracle, with
 * the first mismatch of each thread reported. The oracle costs about
 * 10 us a value, so the comparison is split over four threads.
 */
int
oracleMismatches(const std::vector<double> &values)
{
    constexpr std::size_t kThreads = 4;
    std::vector<int> mismatches(kThreads, 0);
    std::vector<double> first(kThreads, 0.0);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            for (std::size_t i = t; i < values.size(); i += kThreads)
                if (jsonNumber(values[i]) != oracleJsonNumber(values[i]) &&
                    mismatches[t]++ == 0)
                    first[t] = values[i];
        });
    int total = 0;
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads[t].join();
        if (mismatches[t] > 0)
            ADD_FAILURE() << "jsonNumber(" << oracleJsonNumber(first[t])
                          << ") wrote " << jsonNumber(first[t]);
        total += mismatches[t];
    }
    return total;
}

TEST(JsonNumber, MatchesOracleOnRandomBitPatterns)
{
    std::mt19937_64 rng(0x6a736f6eu);
    std::vector<double> values;
    values.reserve(1u << 20);
    while (values.size() < (1u << 20)) {
        const std::uint64_t bits = rng();
        double v = 0.0;
        std::memcpy(&v, &bits, sizeof(v));
        if (std::isfinite(v))
            values.push_back(v);
    }
    EXPECT_EQ(oracleMismatches(values), 0);
}

TEST(JsonNumber, MatchesOracleOnPowersOfTwoAndTheirPredecessors)
{
    std::vector<double> values;
    for (int e = -1074; e <= 1023; ++e) {
        const double p = std::ldexp(1.0, e);
        for (const double v : {p, std::nextafter(p, 0.0)})
            values.insert(values.end(), {v, -v});
    }
    EXPECT_EQ(oracleMismatches(values), 0);
}

TEST(JsonNumber, MatchesOracleOnDecimalValues)
{
    std::vector<double> values;
    for (int i = -100000; i <= 100000; ++i) {
        values.push_back(i);
        values.push_back(i * 0.1);
        values.push_back(i * 1e-7);
        if (i > 0)
            values.push_back(std::log10(static_cast<double>(i)));
    }
    EXPECT_EQ(oracleMismatches(values), 0);
}

TEST(JsonNumber, MatchesOracleOnEdgeValues)
{
    EXPECT_EQ(oracleMismatches({0.0, -0.0, 5e-324, -5e-324, DBL_MAX,
                                -DBL_MAX, DBL_MIN, 1e21, 1e-5,
                                123456789012345680.0}),
              0);
    EXPECT_EQ(jsonNumber(NAN), "null");
    EXPECT_EQ(jsonNumber(-INFINITY), "null");
    EXPECT_EQ(jsonNumber(0.1), "0.1");
    EXPECT_EQ(jsonNumber(1e21), "1e+21");
    EXPECT_EQ(jsonNumber(5e-324), "5e-324");
}

} // namespace
} // namespace dfault::obs
