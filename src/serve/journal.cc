#include "serve/journal.hh"

#include <limits>

#include "common/logging.hh"
#include "common/rng.hh"
#include "fi/injector.hh"
#include "obs/stats.hh"

namespace dfault::serve {

namespace {

using obs::arrayFromJson;
using obs::arrayJson;
using obs::intFieldIn;
using obs::u64Field;

constexpr obs::RecordKind kSegment{"seg", 8, "segment", "tick"};
constexpr obs::RecordKind kSnapshot{"snap", 8, "snapshot", "tick"};

/**
 * The serve.* counters a record replays, with the same descriptions
 * the service registers so applyStatOps lands on the same families.
 */
struct CounterField
{
    const char *name;
    const char *description;
    std::uint64_t CounterBlock::*field;
};

constexpr CounterField kCounterFields[] = {
    {"serve.submitted", "prediction requests submitted",
     &CounterBlock::submitted},
    {"serve.served", "requests answered by the primary model",
     &CounterBlock::served},
    {"serve.degraded",
     "requests answered from the degraded path (LKG / fallback)",
     &CounterBlock::degraded},
    {"serve.shed", "requests shed (admission or eviction)",
     &CounterBlock::shed},
    {"serve.shed.critical",
     "requests shed in the critical priority class",
     &CounterBlock::shedCritical},
    {"serve.shed.health", "requests shed in the health priority class",
     &CounterBlock::shedHealth},
    {"serve.shed.bulk", "requests shed in the bulk priority class",
     &CounterBlock::shedBulk},
    {"serve.breaker.opened", "circuit breaker open transitions",
     &CounterBlock::breakerOpened},
    {"serve.breaker.half_open", "circuit breaker half-open transitions",
     &CounterBlock::breakerHalfOpened},
    {"serve.breaker.closed",
     "circuit breaker recoveries (half-open -> closed)",
     &CounterBlock::breakerClosed},
    {"serve.ticks", "service ticks run", &CounterBlock::ticks},
};

std::string
requestJson(const JournalRequest &r)
{
    obs::JsonWriter w;
    w.field("id", r.id);
    w.field("key", r.key);
    w.field("pri", r.priority);
    w.field("shard", r.shard);
    w.field("enq", r.enqueueTick);
    w.fieldRaw("features", arrayJson(r.features, obs::jsonNumber));
    return w.str();
}

bool
requestFromJson(const obs::JsonValue &v, JournalRequest &out)
{
    if (!v.isObject())
        return false;
    JournalRequest r;
    if (!u64Field(v, "id", r.id) || !u64Field(v, "key", r.key) ||
        !intFieldIn(v, "pri", 0, kPriorityCount - 1, r.priority) ||
        !intFieldIn(v, "shard", 0, 1 << 20, r.shard) ||
        !u64Field(v, "enq", r.enqueueTick))
        return false;
    if (!arrayFromJson(v.find("features"), obs::numberFromJson, r.features))
        return false;
    out = std::move(r);
    return true;
}

std::string
responseJson(const Response &r)
{
    obs::JsonWriter w;
    w.field("id", r.id);
    w.field("key", r.key);
    w.field("pri", static_cast<int>(r.priority));
    w.field("shard", r.shard);
    w.field("disp", static_cast<int>(r.disposition));
    w.field("degraded", r.degraded);
    // jsonNumber writes a shed response's NaN prediction as null; the
    // parser maps it back explicitly.
    w.fieldRaw("prediction", obs::jsonNumber(r.prediction));
    w.field("reason", r.reason);
    return w.str();
}

bool
responseFromJson(const obs::JsonValue &v, Response &out)
{
    if (!v.isObject())
        return false;
    Response r;
    int priority = 0;
    int disposition = 0;
    if (!u64Field(v, "id", r.id) || !u64Field(v, "key", r.key) ||
        !intFieldIn(v, "pri", 0, kPriorityCount - 1, priority) ||
        !intFieldIn(v, "shard", 0, 1 << 20, r.shard) ||
        !intFieldIn(v, "disp", 0, 2, disposition))
        return false;
    r.priority = static_cast<Priority>(priority);
    r.disposition = static_cast<Disposition>(disposition);
    const obs::JsonValue *degraded = v.find("degraded");
    if (degraded == nullptr ||
        degraded->kind != obs::JsonValue::Kind::Bool)
        return false;
    r.degraded = degraded->boolean;
    const obs::JsonValue *prediction = v.find("prediction");
    if (prediction == nullptr)
        return false;
    if (prediction->kind == obs::JsonValue::Kind::Number)
        r.prediction = prediction->number;
    else if (prediction->isNull())
        r.prediction = std::numeric_limits<double>::quiet_NaN();
    else
        return false;
    const obs::JsonValue *reason = v.find("reason");
    if (reason == nullptr || reason->kind != obs::JsonValue::Kind::String)
        return false;
    r.reason = reason->string;
    out = std::move(r);
    return true;
}

std::string
breakerJson(const JournalBreaker &b)
{
    obs::JsonWriter w;
    w.field("state", b.state);
    w.field("consec", b.consecutive);
    w.field("window", b.window);
    w.field("fails", b.windowFailures);
    w.field("opened", b.openedTick);
    w.field("probes", b.probeSuccesses);
    return w.str();
}

bool
breakerFromJson(const obs::JsonValue &v, JournalBreaker &out)
{
    if (!v.isObject())
        return false;
    JournalBreaker b;
    if (!intFieldIn(v, "state", 0, 2, b.state) ||
        !intFieldIn(v, "consec", 0, 1 << 30, b.consecutive) ||
        !intFieldIn(v, "fails", 0, 1 << 30, b.windowFailures) ||
        !u64Field(v, "opened", b.openedTick) ||
        !intFieldIn(v, "probes", 0, 1 << 30, b.probeSuccesses))
        return false;
    const obs::JsonValue *window = v.find("window");
    if (window == nullptr ||
        window->kind != obs::JsonValue::Kind::String)
        return false;
    for (char c : window->string)
        if (c != '0' && c != '1')
            return false;
    b.window = window->string;
    out = std::move(b);
    return true;
}

/** The payload fields segments and snapshots share. */
template <typename Record>
bool
sharedFromDoc(const obs::JsonValue &doc, Record &r, std::string *error)
{
    if (!u64Field(doc, "tick", r.tick) || !u64Field(doc, "next_id", r.nextId))
        return obs::recordError(error, "missing tick/next_id");
    if (!arrayFromJson(doc.find("responses"), responseFromJson, r.responses))
        return obs::recordError(error, "bad responses array");
    if (!arrayFromJson(doc.find("breakers"), breakerFromJson, r.breakers))
        return obs::recordError(error, "bad breakers array");
    const obs::JsonValue *ops = doc.find("stat_ops");
    std::string ops_error;
    if (ops == nullptr || !obs::statOpsFromJson(*ops, r.statOps, &ops_error))
        return obs::recordError(error, "bad stat_ops: " + ops_error);
    return true;
}

bool
segmentFromDoc(const obs::JsonValue &doc, JournalSegment &out,
               std::string *error)
{
    JournalSegment parsed;
    if (!sharedFromDoc(doc, parsed, error))
        return false;
    if (!arrayFromJson(doc.find("admitted"), requestFromJson,
                       parsed.admitted))
        return obs::recordError(error, "bad admitted array");
    out = std::move(parsed);
    return true;
}

bool
snapshotFromDoc(const obs::JsonValue &doc, JournalSnapshot &out,
                std::string *error)
{
    JournalSnapshot parsed;
    if (!sharedFromDoc(doc, parsed, error))
        return false;
    if (!arrayFromJson(doc.find("queued"), requestFromJson, parsed.queued))
        return obs::recordError(error, "bad queued array");
    const auto lkgFromJson = [](const obs::JsonValue &v,
                                std::pair<std::uint64_t, double> &kv) {
        std::vector<double> pair;
        if (!arrayFromJson(&v, obs::numberFromJson, pair) ||
            pair.size() != 2 ||
            !(pair[0] >= 0 && pair[0] < 18446744073709551616.0))
            return false;
        kv = {static_cast<std::uint64_t>(pair[0]), pair[1]};
        return true;
    };
    if (!arrayFromJson(doc.find("lkg"), lkgFromJson, parsed.lastKnownGood))
        return obs::recordError(error, "bad lkg array");
    out = std::move(parsed);
    return true;
}

} // namespace

std::vector<obs::StatOp>
counterBlockOps(const CounterBlock &block)
{
    std::vector<obs::StatOp> ops;
    for (const CounterField &f : kCounterFields) {
        const std::uint64_t value = block.*(f.field);
        if (value == 0)
            continue;
        obs::StatOp op;
        op.kind = obs::StatOp::Kind::CounterInc;
        op.name = f.name;
        op.description = f.description;
        op.value = static_cast<double>(value);
        ops.push_back(std::move(op));
    }
    return ops;
}

void
counterBlockAdd(CounterBlock &block, const std::vector<obs::StatOp> &ops)
{
    for (const obs::StatOp &op : ops) {
        if (op.kind != obs::StatOp::Kind::CounterInc)
            continue;
        for (const CounterField &f : kCounterFields)
            if (op.name == f.name) {
                block.*(f.field) += static_cast<std::uint64_t>(op.value);
                break;
            }
    }
}

std::uint64_t
journalConfigDigest(const Params &params)
{
    std::uint64_t hash = kFnvOffset64;
    hash = fnv1a64("dfault-serve-journal-v1,", hash);
    hashU64(hash, params.queueCapacity);
    hashU64(hash, params.budgetPerTick);
    hashU64(hash, params.degradeAfterTicks);
    hashU64(hash, static_cast<std::uint64_t>(params.shards));
    hashU64(hash, static_cast<std::uint64_t>(params.maxRetries));
    const BreakerParams &b = params.breaker;
    hashU64(hash, static_cast<std::uint64_t>(b.consecutiveFailures));
    hashDouble(hash, b.errorRateThreshold);
    hashU64(hash, static_cast<std::uint64_t>(b.errorRateWindow));
    hashU64(hash, static_cast<std::uint64_t>(b.cooldownTicks));
    hashU64(hash, static_cast<std::uint64_t>(b.halfOpenProbes));
    hashU64(hash, params.journalSalt);
    return hash;
}

std::string
journalSegmentJson(const JournalSegment &seg, std::uint64_t digest)
{
    obs::JsonWriter w = obs::recordHeader(kSegment, seg.tick, digest);
    w.field("next_id", seg.nextId);
    w.fieldRaw("admitted", arrayJson(seg.admitted, requestJson));
    w.fieldRaw("responses", arrayJson(seg.responses, responseJson));
    w.fieldRaw("breakers", arrayJson(seg.breakers, breakerJson));
    w.fieldRaw("stat_ops", obs::statOpsJson(seg.statOps));
    return w.str();
}

bool
journalSegmentFromJson(const std::string &text, std::uint64_t digest,
                       JournalSegment &out, std::string *error)
{
    const auto doc = obs::parseRecord(text, kSegment, digest, error);
    return doc && segmentFromDoc(*doc, out, error);
}

std::string
journalSnapshotJson(const JournalSnapshot &snap, std::uint64_t digest)
{
    obs::JsonWriter w = obs::recordHeader(kSnapshot, snap.tick, digest);
    w.field("next_id", snap.nextId);
    w.fieldRaw("queued", arrayJson(snap.queued, requestJson));
    w.fieldRaw("responses", arrayJson(snap.responses, responseJson));
    w.fieldRaw("breakers", arrayJson(snap.breakers, breakerJson));
    w.fieldRaw("lkg",
               arrayJson(snap.lastKnownGood,
                         [](const std::pair<std::uint64_t, double> &kv) {
                             return "[" + std::to_string(kv.first) + "," +
                                    obs::jsonNumber(kv.second) + "]";
                         }));
    w.fieldRaw("stat_ops", obs::statOpsJson(snap.statOps));
    return w.str();
}

bool
journalSnapshotFromJson(const std::string &text, std::uint64_t digest,
                        JournalSnapshot &out, std::string *error)
{
    const auto doc = obs::parseRecord(text, kSnapshot, digest, error);
    return doc && snapshotFromDoc(*doc, out, error);
}

void
WriteAheadJournal::open(const std::string &dir, std::uint64_t digest,
                        obs::Registry *registry)
{
    store_.open(dir, digest);
    registry_ =
        registry != nullptr ? registry : &obs::Registry::instance();
}

bool
WriteAheadJournal::writeRecord(const obs::RecordKind &kind,
                               std::uint64_t tick, std::string body)
{
    auto &inj = fi::Injector::instance();
    const bool injected = inj.armed() && inj.shouldFire("journal.write", tick);
    // journal.torn_segment models the write the loader's quarantine
    // path exists for: the process believes the record landed (so it
    // resets its delta), but only half the body survived.
    if (!injected && inj.armed() &&
        inj.shouldFire("journal.torn_segment", tick)) {
        DFAULT_WARN("journal: injected torn record for tick ", tick,
                    " (journal.torn_segment)");
        body.resize(body.size() / 2);
    }
    if (injected || !store_.write(kind, tick, body)) {
        DFAULT_WARN("journal: ",
                    injected ? "injected write failure (journal.write)"
                             : "failed to write " + store_.path(kind, tick),
                    " for tick ", tick,
                    "; the tick stays non-durable and folds into the "
                    "next record");
        registry_->counter("journal.write_failures",
                           "journal records that failed to land")
            .inc();
        return false;
    }
    const bool snapshot = &kind == &kSnapshot;
    registry_
        ->counter(snapshot ? "journal.snapshots_written"
                           : "journal.segments_written",
                  snapshot ? "compacted snapshots written"
                           : "tick segments written")
        .inc();
    return true;
}

bool
WriteAheadJournal::writeSegment(const JournalSegment &seg)
{
    DFAULT_ASSERT(enabled(), "writeSegment() on a disabled journal");
    return writeRecord(kSegment, seg.tick,
                       journalSegmentJson(seg, store_.digest()) + "\n");
}

bool
WriteAheadJournal::writeSnapshot(const JournalSnapshot &snap)
{
    DFAULT_ASSERT(enabled(), "writeSnapshot() on a disabled journal");
    if (!writeRecord(kSnapshot, snap.tick,
                     journalSnapshotJson(snap, store_.digest()) + "\n"))
        return false;
    // Keep two snapshots (a torn newest one falls back to the
    // previous) and retire everything the older retained one
    // subsumes. Ticks start at 1, so 0 means no snapshot yet.
    const std::uint64_t prev = newestSnapshot_;
    if (prev > 0 && prev < snap.tick)
        store_.retire({{&kSegment, prev}, {&kSnapshot, prev - 1}});
    newestSnapshot_ = snap.tick;
    return true;
}

WriteAheadJournal::Restored
WriteAheadJournal::load()
{
    Restored out;
    DFAULT_ASSERT(enabled(), "load() on a disabled journal");
    const auto quarantined = [this] {
        registry_
            ->counter("journal.quarantined_files",
                      "invalid journal records quarantined at restore")
            .inc();
    };

    // Newest valid snapshot wins; an invalid one is quarantined and
    // replay must stop *before* its tick even when an older snapshot
    // is usable — the corrupt snapshot was that tick's only record.
    std::uint64_t stopBefore = ~0ULL;
    const std::vector<std::uint64_t> snaps = store_.list(kSnapshot);
    for (auto it = snaps.rbegin(); it != snaps.rend(); ++it) {
        if (!store_.load(kSnapshot, *it, out.snapshot, snapshotFromDoc)) {
            quarantined();
            stopBefore = *it;
            continue;
        }
        out.hasSnapshot = true;
        out.any = true;
        out.tick = *it;
        newestSnapshot_ = *it;
        break;
    }

    // Segments after the snapshot, ascending. A missing tick number is
    // benign (that record's write failed and its delta folded into the
    // next one); a present-but-invalid record is data loss and replay
    // stops at the record before it.
    for (const std::uint64_t tick : store_.list(kSegment)) {
        if (out.hasSnapshot && tick <= out.snapshot.tick)
            continue;
        if (tick >= stopBefore)
            break;
        JournalSegment seg;
        if (!store_.load(kSegment, tick, seg, segmentFromDoc)) {
            quarantined();
            break;
        }
        out.segments.push_back(std::move(seg));
        out.any = true;
        out.tick = tick;
    }

    if (out.any) {
        registry_
            ->counter("journal.replayed_segments",
                      "journal segments replayed at restore")
            .inc(out.segments.size());
        registry_
            ->gauge("journal.restored_tick",
                    "tick the service was restored to")
            .set(static_cast<double>(out.tick));
    }
    return out;
}

} // namespace dfault::serve
