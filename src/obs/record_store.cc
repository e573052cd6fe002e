#include "obs/record_store.hh"

#include <algorithm>
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "common/logging.hh"
#include "fi/durable.hh"

namespace dfault::obs {

namespace {

constexpr int kRecordVersion = 1;

std::string
digestHex(std::uint64_t digest)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, digest);
    return buf;
}

std::string
fileName(const RecordKind &kind, std::uint64_t n)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s-%0*" PRIu64 ".json", kind.prefix,
                  kind.width, n);
    return buf;
}

/** N of @p name when it is exactly fileName(kind, N). */
std::optional<std::uint64_t>
numberFromName(const std::string &name, const RecordKind &kind)
{
    const std::size_t first = std::strlen(kind.prefix) + 1;
    std::uint64_t n = 0;
    if (name.size() <= first ||
        std::from_chars(name.data() + first, name.data() + name.size(), n)
                .ec != std::errc{} ||
        name != fileName(kind, n))
        return std::nullopt;
    return n;
}

} // namespace

JsonWriter
recordHeader(const RecordKind &kind, std::uint64_t n, std::uint64_t digest)
{
    JsonWriter w;
    w.field("version", kRecordVersion);
    w.field("kind", kind.kind);
    w.field("config_digest", digestHex(digest));
    w.field(kind.indexKey, n);
    return w;
}

std::optional<JsonValue>
parseRecord(std::string_view text, const RecordKind &kind,
            std::uint64_t digest, std::string *error)
{
    std::string parse_error;
    std::optional<JsonValue> doc = jsonParse(text, &parse_error);
    if (!doc || !doc->isObject()) {
        recordError(error, doc ? "not a JSON object"
                               : "bad JSON: " + parse_error);
        return std::nullopt;
    }
    const JsonValue *version = requireNumber(*doc, "version");
    const JsonValue *k = doc->find("kind");
    const JsonValue *d = doc->find("config_digest");
    std::uint64_t n = 0;
    if (version == nullptr || version->number != kRecordVersion)
        recordError(error, "missing or unsupported record version");
    else if (k == nullptr || k->kind != JsonValue::Kind::String ||
             k->string != kind.kind)
        recordError(error,
                    std::string("record kind is not '") + kind.kind + "'");
    else if (d == nullptr || d->kind != JsonValue::Kind::String)
        recordError(error, "missing config_digest");
    else if (d->string != digestHex(digest))
        recordError(error, "config digest mismatch (record written by a "
                           "different configuration): have " +
                               d->string + ", want " + digestHex(digest));
    else if (!u64Field(*doc, kind.indexKey, n))
        recordError(error, std::string("missing ") + kind.indexKey);
    else
        return doc;
    return std::nullopt;
}

bool
recordError(std::string *error, const std::string &msg)
{
    if (error != nullptr)
        *error = msg;
    return false;
}

const JsonValue *
requireNumber(const JsonValue &doc, const char *key)
{
    const JsonValue *v = doc.find(key);
    return v != nullptr && v->kind == JsonValue::Kind::Number ? v : nullptr;
}

bool
u64Field(const JsonValue &doc, const char *key, std::uint64_t &out)
{
    const JsonValue *v = requireNumber(doc, key);
    // 2^64: the cast below is undefined at or beyond it.
    if (v == nullptr || v->number < 0 || v->number >= 18446744073709551616.0)
        return false;
    out = static_cast<std::uint64_t>(v->number);
    return true;
}

bool
intFieldIn(const JsonValue &doc, const char *key, int lo, int hi, int &out)
{
    const JsonValue *v = requireNumber(doc, key);
    if (v == nullptr || !(v->number >= lo && v->number <= hi))
        return false;
    out = static_cast<int>(v->number);
    return true;
}

bool
numberFromJson(const JsonValue &v, double &out)
{
    out = v.number;
    return v.kind == JsonValue::Kind::Number;
}

void
RecordStore::open(const std::string &dir, std::uint64_t digest)
{
    DFAULT_ASSERT(!dir.empty(), "record store needs a directory");
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec)
        DFAULT_FATAL("cannot create record directory '", dir,
                     "': ", ec.message());
    dir_ = dir;
    digest_ = digest;
}

std::string
RecordStore::path(const RecordKind &kind, std::uint64_t n) const
{
    return dir_ + "/" + fileName(kind, n);
}

bool
RecordStore::write(const RecordKind &kind, std::uint64_t n,
                   std::string_view body) const
{
    DFAULT_ASSERT(enabled(), "write() on a record store that is not open");
    return fi::atomicWriteFile(path(kind, n), body);
}

std::vector<std::uint64_t>
RecordStore::list(const RecordKind &kind) const
{
    std::vector<std::uint64_t> out;
    if (!enabled())
        return out;
    std::error_code ec;
    std::filesystem::directory_iterator it(dir_, ec);
    if (ec) {
        DFAULT_WARN("cannot list record directory '", dir_,
                    "': ", ec.message());
        return out;
    }
    for (const auto &entry : it)
        if (entry.is_regular_file())
            if (const auto n =
                    numberFromName(entry.path().filename().string(), kind))
                out.push_back(*n);
    std::sort(out.begin(), out.end());
    return out;
}

std::optional<JsonValue>
RecordStore::read(const RecordKind &kind, std::uint64_t n,
                  std::string *error) const
{
    const auto body = fi::readFile(path(kind, n), error);
    std::optional<JsonValue> doc;
    if (body)
        doc = parseRecord(*body, kind, digest_, error);
    std::uint64_t inBody = 0;
    if (doc && u64Field(*doc, kind.indexKey, inBody) && inBody != n) {
        recordError(error, std::string(kind.indexKey) + " " +
                               std::to_string(inBody) +
                               " in the body does not match the name");
        return std::nullopt;
    }
    return doc;
}

void
RecordStore::quarantine(const RecordKind &kind, std::uint64_t n,
                        const std::string &reason) const
{
    const std::string from = path(kind, n);
    DFAULT_WARN("quarantining ", from, ": ", reason);
    std::error_code ec;
    std::filesystem::rename(from, from + ".quarantined", ec);
    if (ec)
        DFAULT_WARN("cannot rename ", from, " aside: ", ec.message());
}

void
RecordStore::retire(
    std::initializer_list<std::pair<const RecordKind *, std::uint64_t>>
        ranges) const
{
    std::error_code ec;
    std::filesystem::directory_iterator it(dir_, ec);
    if (ec)
        return;
    std::vector<std::filesystem::path> doomed;
    for (const auto &entry : it) {
        if (!entry.is_regular_file())
            continue;
        const std::string name = entry.path().filename().string();
        for (const auto &[kind, last] : ranges) {
            const auto n = numberFromName(name, *kind);
            if (n && *n <= last) {
                doomed.push_back(entry.path());
                break;
            }
        }
    }
    for (const auto &path : doomed) {
        std::filesystem::remove(path, ec);
        if (ec)
            DFAULT_WARN("cannot retire ", path.string(), ": ",
                        ec.message());
    }
}

} // namespace dfault::obs
