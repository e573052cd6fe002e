/**
 * @file
 * Minimal JSON support for telemetry records.
 *
 * The observability layer emits flat JSON objects (JSONL stream lines,
 * stats dumps, trace-event files); this module covers exactly that: a
 * one-line object builder with correct escaping, and a small
 * recursive-descent parser used to validate what the layer itself
 * wrote (trace exports, manifests, event lines). Not a general JSON
 * library — no comments, no trailing commas, UTF-8 passed through
 * untouched.
 */

#ifndef DFAULT_OBS_JSON_HH
#define DFAULT_OBS_JSON_HH

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace dfault::obs {

/** Escape @p raw for use inside a JSON string literal (no quotes added). */
std::string jsonEscape(std::string_view raw);

/**
 * Format a double as JSON: the shortest `%.{p}g` text that parses back
 * to @p value (`%.17g` when no p <= 16 does); NaN/inf -> null.
 */
std::string jsonNumber(double value);

/** Builds one flat JSON object, field by field, in insertion order. */
class JsonWriter
{
  public:
    JsonWriter &field(std::string_view key, std::string_view value);
    JsonWriter &field(std::string_view key, const char *value);
    JsonWriter &field(std::string_view key, const std::string &value);
    JsonWriter &field(std::string_view key, double value);
    JsonWriter &field(std::string_view key, std::int64_t value);
    JsonWriter &field(std::string_view key, std::uint64_t value);
    JsonWriter &field(std::string_view key, int value);
    JsonWriter &field(std::string_view key, bool value);

    /** Insert an already-serialized JSON value (object, array, ...). */
    JsonWriter &fieldRaw(std::string_view key, std::string_view json);

    /** The complete object, e.g. {"a":1,"b":"x"}. */
    std::string str() const { return "{" + body_ + "}"; }

    bool empty() const { return body_.empty(); }

  private:
    void key(std::string_view k);

    std::string body_;
};

/**
 * Parsed JSON value. Objects preserve no duplicate keys (the last one
 * wins) and are sorted by key, which is all the validating consumers
 * need.
 */
class JsonValue
{
  public:
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<JsonValue> array;
    std::map<std::string, JsonValue> object;

    bool isNull() const { return kind == Kind::Null; }
    bool isObject() const { return kind == Kind::Object; }
    bool isArray() const { return kind == Kind::Array; }

    /** Object member by key, or nullptr when absent / not an object. */
    const JsonValue *find(const std::string &key) const
    {
        if (kind != Kind::Object)
            return nullptr;
        const auto it = object.find(key);
        return it == object.end() ? nullptr : &it->second;
    }
};

/**
 * Parse one complete JSON document. Returns std::nullopt on malformed
 * input (trailing garbage included) and, when @p error is non-null,
 * stores a one-line description with the byte offset.
 */
std::optional<JsonValue> jsonParse(std::string_view text,
                                   std::string *error = nullptr);

} // namespace dfault::obs

#endif // DFAULT_OBS_JSON_HH
