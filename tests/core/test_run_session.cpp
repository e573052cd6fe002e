/**
 * @file
 * Tests for core::RunSession, the one setup/teardown path of every
 * driver run: cancellation reaching run() still writes the artifacts,
 * default artifact paths derive from stats_out=, and the CLI's flag
 * spelling resolves to the same config as the bench key spelling.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "core/run_session.hh"
#include "fi/durable.hh"
#include "fi/injector.hh"
#include "obs/events.hh"
#include "obs/json.hh"
#include "par/cancel.hh"

namespace dfault::core {
namespace {

struct RunSessionTest : ::testing::Test
{
    std::string dir = ::testing::TempDir() + "dfault_session_" +
                      ::testing::UnitTest::GetInstance()
                          ->current_test_info()
                          ->name();

    void SetUp() override
    {
        ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
        std::filesystem::create_directories(dir);
    }

    void TearDown() override
    {
        fi::Injector::instance().disarm();
        par::resetRootCancelToken();
        obs::setProgress(false);
        std::filesystem::remove_all(dir);
    }

    /** Small, fast session arguments plus @p extra. */
    static std::vector<std::string>
    args(std::vector<std::string> extra)
    {
        std::vector<std::string> out{"test_run_session", "footprint_mib=2",
                                     "work_scale=0.25", "epochs=20",
                                     "thermal_loop=false"};
        out.insert(out.end(), extra.begin(), extra.end());
        return out;
    }
};

obs::JsonValue
readJson(const std::string &path)
{
    const auto text = fi::readFile(path);
    EXPECT_TRUE(text.has_value()) << path;
    std::string error;
    const auto doc = obs::jsonParse(text.value_or(""), &error);
    EXPECT_TRUE(doc.has_value()) << path << ": " << error;
    return doc.value_or(obs::JsonValue{});
}

std::vector<std::pair<std::string, std::string>>
resolved(const Config &config)
{
    std::vector<std::pair<std::string, std::string>> out;
    for (const std::string &key : config.keys())
        out.emplace_back(key, config.getString(key));
    return out;
}

TEST_F(RunSessionTest, CancelledBodyStillWritesInterruptedArtifacts)
{
    const std::string stats = dir + "/stats.json";
    RunSession session(args({"stats_out=" + stats}));
    const int rc = session.run([](RunSession &) -> int {
        par::rootCancelToken().cancel("test deadline", "user");
        throw par::CancelledError("test deadline", "user");
    });
    EXPECT_EQ(rc, 1);
    EXPECT_TRUE(readJson(stats).isObject());
    const auto manifest = readJson(stats + ".manifest.json");
    const auto *interrupted = manifest.find("interrupted");
    ASSERT_NE(interrupted, nullptr);
    EXPECT_TRUE(interrupted->boolean);
    const auto *reason = manifest.find("interrupt_reason");
    ASSERT_NE(reason, nullptr);
    EXPECT_NE(reason->string.find("test deadline"), std::string::npos);
}

TEST_F(RunSessionTest, ArtifactPathsDefaultFromStatsOut)
{
    // Every cell fails on its only attempt and lands in quarantine;
    // after=1 spares the one-workload profile batch.
    const std::string stats = dir + "/s.json";
    RunSession session(args({"stats_out=" + stats, "retries=0",
                             "faults=task.throw:after=1"}));
    const int rc = session.run([](RunSession &s) {
        const auto m = s.campaign().sweep({{"srad", 1, "srad"}},
                                          {{2.283, 1.428, 50.0}});
        return m.size() == 1 && m[0].quarantined ? 0 : 2;
    });
    EXPECT_EQ(rc, 0);
    const auto manifest = readJson(stats + ".manifest.json");
    const auto *tool = manifest.find("tool");
    ASSERT_NE(tool, nullptr);
    EXPECT_EQ(tool->string, "test_run_session");
    EXPECT_EQ(manifest.find("interrupted"), nullptr);
    const auto quarantine = readJson(stats + ".quarantine.json");
    const auto *count = quarantine.find("count");
    ASSERT_NE(count, nullptr);
    EXPECT_EQ(count->number, 1.0);
}

TEST_F(RunSessionTest, CliFlagsResolveToTheBenchKeys)
{
    const char *cli[] = {"dfault", "characterize", "--stats-out=a",
                         "--progress", "footprint_mib=2"};
    std::vector<std::pair<std::string, std::string>> from_flags;
    std::vector<std::string> positionals;
    {
        RunSession session(cliArgs(5, cli));
        from_flags = resolved(session.config());
        positionals = session.positionals();
    }
    std::vector<std::pair<std::string, std::string>> from_keys;
    {
        RunSession session(std::vector<std::string>{
            "dfault", "characterize", "stats_out=a", "progress=true",
            "footprint_mib=2"});
        from_keys = resolved(session.config());
    }
    EXPECT_EQ(from_flags, from_keys);
    EXPECT_EQ(positionals, std::vector<std::string>{"characterize"});
}

TEST_F(RunSessionTest, UnknownCliFlagIsFatal)
{
    const char *bogus[] = {"dfault", "profile", "--bogus"};
    EXPECT_EXIT(cliArgs(3, bogus), ::testing::ExitedWithCode(1),
                "unknown flag '--bogus'; telemetry flags are "
                "--stats-out=, --trace-out=");
    // A switch given a value, or a value flag without one, is unknown.
    const char *valued[] = {"dfault", "--progress=true"};
    EXPECT_EXIT(cliArgs(2, valued), ::testing::ExitedWithCode(1),
                "unknown flag '--progress=true'");
    const char *bare[] = {"dfault", "--stats-out"};
    EXPECT_EXIT(cliArgs(2, bare), ::testing::ExitedWithCode(1),
                "unknown flag '--stats-out'");
}

} // namespace
} // namespace dfault::core
