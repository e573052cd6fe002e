#include "obs/json.hh"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace dfault::obs {

std::string
jsonEscape(std::string_view raw)
{
    std::string out;
    out.reserve(raw.size());
    for (const char c : raw) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
jsonNumber(double value)
{
    if (!std::isfinite(value))
        return "null";
    // The text is the shortest %.{p}g (p <= 16, else %.17g) that parses
    // back to @p value; checkpoints, journals and manifests depend on
    // these exact bytes. No p below the digit count of the shortest
    // round-trip form can round-trip, so the search starts there rather
    // than at 1 and almost always ends on its first step.
    char buf[32];
    char *end = std::to_chars(buf, buf + sizeof(buf), value,
                              std::chars_format::scientific)
                    .ptr;
    int prec = 0;
    for (const char *c = buf; c != end && *c != 'e'; ++c)
        prec += *c >= '0' && *c <= '9' ? 1 : 0;
    for (;; ++prec) {
        end = std::to_chars(buf, buf + sizeof(buf), value,
                            std::chars_format::general, prec)
                  .ptr;
        double parsed = 0.0;
        std::from_chars(buf, end, parsed);
        if (parsed == value || prec >= 17)
            return std::string(buf, end);
    }
}

void
JsonWriter::key(std::string_view k)
{
    if (!body_.empty())
        body_ += ',';
    body_ += '"';
    body_ += jsonEscape(k);
    body_ += "\":";
}

JsonWriter &
JsonWriter::field(std::string_view k, std::string_view value)
{
    key(k);
    body_ += '"';
    body_ += jsonEscape(value);
    body_ += '"';
    return *this;
}

JsonWriter &
JsonWriter::field(std::string_view k, const char *value)
{
    return field(k, std::string_view(value));
}

JsonWriter &
JsonWriter::field(std::string_view k, const std::string &value)
{
    return field(k, std::string_view(value));
}

JsonWriter &
JsonWriter::field(std::string_view k, double value)
{
    key(k);
    body_ += jsonNumber(value);
    return *this;
}

JsonWriter &
JsonWriter::field(std::string_view k, std::int64_t value)
{
    key(k);
    body_ += std::to_string(value);
    return *this;
}

JsonWriter &
JsonWriter::field(std::string_view k, std::uint64_t value)
{
    key(k);
    body_ += std::to_string(value);
    return *this;
}

JsonWriter &
JsonWriter::field(std::string_view k, int value)
{
    return field(k, static_cast<std::int64_t>(value));
}

JsonWriter &
JsonWriter::field(std::string_view k, bool value)
{
    key(k);
    body_ += value ? "true" : "false";
    return *this;
}

JsonWriter &
JsonWriter::fieldRaw(std::string_view k, std::string_view json)
{
    key(k);
    body_ += json;
    return *this;
}

namespace {

/** Recursive-descent parser over a string_view; reports by offset. */
class Parser
{
  public:
    Parser(std::string_view text, std::string *error)
        : text_(text), error_(error)
    {
    }

    std::optional<JsonValue> run()
    {
        skipWs();
        JsonValue value;
        if (!parseValue(value))
            return std::nullopt;
        skipWs();
        if (pos_ != text_.size()) {
            fail("trailing characters after document");
            return std::nullopt;
        }
        return value;
    }

  private:
    void fail(const std::string &what)
    {
        if (error_ != nullptr && error_->empty())
            *error_ = what + " at offset " + std::to_string(pos_);
    }

    void skipWs()
    {
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r')
                break;
            ++pos_;
        }
    }

    bool literal(std::string_view word)
    {
        if (text_.substr(pos_, word.size()) != word) {
            fail("invalid literal");
            return false;
        }
        pos_ += word.size();
        return true;
    }

    bool parseValue(JsonValue &out)
    {
        if (pos_ >= text_.size()) {
            fail("unexpected end of input");
            return false;
        }
        switch (text_[pos_]) {
          case '{':
            return parseObject(out);
          case '[':
            return parseArray(out);
          case '"':
            out.kind = JsonValue::Kind::String;
            return parseString(out.string);
          case 't':
            out.kind = JsonValue::Kind::Bool;
            out.boolean = true;
            return literal("true");
          case 'f':
            out.kind = JsonValue::Kind::Bool;
            out.boolean = false;
            return literal("false");
          case 'n':
            out.kind = JsonValue::Kind::Null;
            return literal("null");
          default:
            return parseNumber(out);
        }
    }

    bool parseObject(JsonValue &out)
    {
        out.kind = JsonValue::Kind::Object;
        ++pos_; // '{'
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == '}') {
            ++pos_;
            return true;
        }
        for (;;) {
            skipWs();
            std::string key;
            if (pos_ >= text_.size() || text_[pos_] != '"') {
                fail("expected object key");
                return false;
            }
            if (!parseString(key))
                return false;
            skipWs();
            if (pos_ >= text_.size() || text_[pos_] != ':') {
                fail("expected ':' after object key");
                return false;
            }
            ++pos_;
            skipWs();
            JsonValue value;
            if (!parseValue(value))
                return false;
            out.object[std::move(key)] = std::move(value);
            skipWs();
            if (pos_ >= text_.size()) {
                fail("unterminated object");
                return false;
            }
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == '}') {
                ++pos_;
                return true;
            }
            fail("expected ',' or '}' in object");
            return false;
        }
    }

    bool parseArray(JsonValue &out)
    {
        out.kind = JsonValue::Kind::Array;
        ++pos_; // '['
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == ']') {
            ++pos_;
            return true;
        }
        for (;;) {
            skipWs();
            JsonValue value;
            if (!parseValue(value))
                return false;
            out.array.push_back(std::move(value));
            skipWs();
            if (pos_ >= text_.size()) {
                fail("unterminated array");
                return false;
            }
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == ']') {
                ++pos_;
                return true;
            }
            fail("expected ',' or ']' in array");
            return false;
        }
    }

    bool parseString(std::string &out)
    {
        ++pos_; // opening quote
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c == '"') {
                ++pos_;
                return true;
            }
            if (c != '\\') {
                out += c;
                ++pos_;
                continue;
            }
            if (pos_ + 1 >= text_.size()) {
                fail("unterminated escape");
                return false;
            }
            const char esc = text_[pos_ + 1];
            pos_ += 2;
            switch (esc) {
              case '"':
                out += '"';
                break;
              case '\\':
                out += '\\';
                break;
              case '/':
                out += '/';
                break;
              case 'b':
                out += '\b';
                break;
              case 'f':
                out += '\f';
                break;
              case 'n':
                out += '\n';
                break;
              case 'r':
                out += '\r';
                break;
              case 't':
                out += '\t';
                break;
              case 'u': {
                if (pos_ + 4 > text_.size()) {
                    fail("truncated \\u escape");
                    return false;
                }
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = text_[pos_ + i];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    else {
                        fail("invalid \\u escape");
                        return false;
                    }
                }
                pos_ += 4;
                // The writer only emits \u00xx for control bytes;
                // encode the general case as UTF-8 anyway.
                if (code < 0x80) {
                    out += static_cast<char>(code);
                } else if (code < 0x800) {
                    out += static_cast<char>(0xc0 | (code >> 6));
                    out += static_cast<char>(0x80 | (code & 0x3f));
                } else {
                    out += static_cast<char>(0xe0 | (code >> 12));
                    out += static_cast<char>(0x80 |
                                             ((code >> 6) & 0x3f));
                    out += static_cast<char>(0x80 | (code & 0x3f));
                }
                break;
              }
              default:
                fail("unknown escape");
                return false;
            }
        }
        fail("unterminated string");
        return false;
    }

    bool parseNumber(JsonValue &out)
    {
        const std::size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-')
            ++pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-'))
            ++pos_;
        if (pos_ == start) {
            fail("expected a value");
            return false;
        }
        const std::string token(text_.substr(start, pos_ - start));
        char *end = nullptr;
        const double value = std::strtod(token.c_str(), &end);
        if (end == token.c_str() || *end != '\0') {
            fail("malformed number");
            return false;
        }
        out.kind = JsonValue::Kind::Number;
        out.number = value;
        return true;
    }

    std::string_view text_;
    std::string *error_;
    std::size_t pos_ = 0;
};

} // namespace

std::optional<JsonValue>
jsonParse(std::string_view text, std::string *error)
{
    if (error != nullptr)
        error->clear();
    return Parser(text, error).run();
}

} // namespace dfault::obs
