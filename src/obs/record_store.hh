/**
 * @file
 * A directory of numbered, config-stamped JSON records.
 *
 * The sweep checkpoint (core/checkpoint.hh) and the serving journal
 * (serve/journal.hh) persist their progress as one JSON file per
 * record and must resume exactly after a crash at any instant. This
 * store owns everything about those files except their payload:
 *
 *  - the name `<prefix>-<N>.json`, N zero-padded to the kind's width;
 *  - the header — `version`, `kind`, `config_digest` and N under the
 *    kind's index key — written on every record and checked on every
 *    read, together with the N in the file name;
 *  - atomic writes (fi::atomicWriteFile): a crash leaves the old
 *    record or the new one, never a torn file under the final name;
 *  - listing one kind in ascending N;
 *  - quarantine: an invalid record is renamed `<name>.quarantined`,
 *    kept for inspection but never read again;
 *  - retiring records at or below a given N.
 *
 * What an invalid record means is the caller's policy: sweep cells
 * are independent, so the sweep re-measures them; journal segments
 * are ordered deltas, so replay stops before the first invalid one.
 *
 * A store holds no mutable state after open(): pool workers may
 * write() distinct records concurrently without a lock.
 */

#ifndef DFAULT_OBS_RECORD_STORE_HH
#define DFAULT_OBS_RECORD_STORE_HH

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/json.hh"

namespace dfault::obs {

/** One kind of record a store holds. */
struct RecordKind
{
    const char *prefix;   ///< file name prefix, e.g. "seg"
    int width;            ///< zero-padded digits of N in the name
    const char *kind;     ///< header `kind`, e.g. "segment"
    const char *indexKey; ///< header field holding N, e.g. "tick"
};

/**
 * A writer holding the header of record @p n of @p kind stamped with
 * config @p digest; the schema appends its payload fields.
 */
JsonWriter recordHeader(const RecordKind &kind, std::uint64_t n,
                        std::uint64_t digest);

/**
 * Parse @p text as a @p kind record stamped with @p digest. Returns
 * nullopt and sets @p error when it is not a JSON object or its header
 * has another version, kind or digest, or no N.
 */
std::optional<JsonValue> parseRecord(std::string_view text,
                                     const RecordKind &kind,
                                     std::uint64_t digest,
                                     std::string *error);

/** Schema parsers' failure path: store @p msg in @p error, return false. */
bool recordError(std::string *error, const std::string &msg);

/** @p key of @p doc when it is a number, else nullptr. */
const JsonValue *requireNumber(const JsonValue &doc, const char *key);

/** @p key of @p doc as a non-negative integer; false when it is not. */
bool u64Field(const JsonValue &doc, const char *key, std::uint64_t &out);

/** @p key of @p doc as an integer in [@p lo, @p hi]; false otherwise. */
bool intFieldIn(const JsonValue &doc, const char *key, int lo, int hi,
                int &out);

/** A JSON number into @p out; false for any other value. */
bool numberFromJson(const JsonValue &v, double &out);

/** @p items as a JSON array, each element written by @p itemJson. */
template <typename T, typename Fn>
std::string
arrayJson(const std::vector<T> &items, Fn &&itemJson)
{
    std::string out = "[";
    for (std::size_t i = 0; i < items.size(); ++i) {
        if (i > 0)
            out += ',';
        out += itemJson(items[i]);
    }
    out += ']';
    return out;
}

/** Parse a JSON array into @p out with @p itemFromJson; false on any
 * bad element. */
template <typename T, typename Fn>
bool
arrayFromJson(const JsonValue *v, Fn &&itemFromJson, std::vector<T> &out)
{
    if (v == nullptr || !v->isArray())
        return false;
    out.clear();
    out.reserve(v->array.size());
    for (const JsonValue &item : v->array) {
        T parsed{};
        if (!itemFromJson(item, parsed))
            return false;
        out.push_back(std::move(parsed));
    }
    return true;
}

/** See file comment. */
class RecordStore
{
  public:
    /**
     * Bind to @p dir (created, parents included, when missing) for
     * records stamped with @p digest. Fatal when the directory cannot
     * be created: a run asked to be durable that cannot be is a
     * configuration error.
     */
    void open(const std::string &dir, std::uint64_t digest);

    bool enabled() const { return !dir_.empty(); }
    std::uint64_t digest() const { return digest_; }

    /** The file holding record @p n of @p kind. */
    std::string path(const RecordKind &kind, std::uint64_t n) const;

    /**
     * Atomically replace record @p n with @p body, a document started
     * by recordHeader(). Returns false when nothing landed.
     */
    bool write(const RecordKind &kind, std::uint64_t n,
               std::string_view body) const;

    /** N of every @p kind record in the directory, ascending. */
    std::vector<std::uint64_t> list(const RecordKind &kind) const;

    /**
     * Read record @p n into @p out: check its header and that the N in
     * the body is @p n, then apply the schema's @p parse. Quarantines
     * the record when any step fails; returns whether it was valid.
     */
    template <typename T>
    bool load(const RecordKind &kind, std::uint64_t n, T &out,
              bool (*parse)(const JsonValue &, T &, std::string *)) const
    {
        std::string error;
        const std::optional<JsonValue> doc = read(kind, n, &error);
        if (doc && parse(*doc, out, &error))
            return true;
        quarantine(kind, n, error);
        return false;
    }

    /**
     * Delete, in one directory pass, every record of each (kind, last)
     * range numbered at or below its last.
     */
    void retire(std::initializer_list<std::pair<const RecordKind *,
                                                std::uint64_t>>
                    ranges) const;

  private:
    std::optional<JsonValue> read(const RecordKind &kind, std::uint64_t n,
                                  std::string *error) const;
    void quarantine(const RecordKind &kind, std::uint64_t n,
                    const std::string &reason) const;

    std::string dir_;
    std::uint64_t digest_ = 0;
};

} // namespace dfault::obs

#endif // DFAULT_OBS_RECORD_STORE_HH
