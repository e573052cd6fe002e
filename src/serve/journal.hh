/**
 * @file
 * Tick-granular write-ahead journal for serve::PredictionService.
 *
 * Every committed tick is appended as one *segment* record,
 * periodically compacted into a full-state *snapshot* record, and a
 * restore replays snapshot + segments to the exact pre-crash state —
 * same serve.* counters (via deferred stat-op replay,
 * obs/deferral.hh), breaker phase, last-known-good cache and response
 * transcript. The records live in an obs::RecordStore, the one the
 * sweep checkpoint uses (`seg-NNNNNNNN.json` / `snap-NNNNNNNN.json`,
 * named by tick); this module is their schemas and replay policy.
 *
 * The WAL contract: work whose tick reached the journal is never
 * re-executed; work past the last durable record is lost and
 * deterministically re-executed by the resumed driver. Because the
 * service's disposition sequence is a pure function of the submission
 * sequence (serve/service.hh), a killed-and-resumed run reaches the
 * transcript and stats digest of a run that never died, bit for bit.
 *
 *  - A segment at tick T carries the *delta since the previous durable
 *    record*: requests admitted, responses committed (in commit
 *    order), the post-tick breaker state of every shard, and the
 *    serve.* counter increments as obs::StatOps. Deltas compose, so a
 *    record whose write failed outright simply folds into the next
 *    one; a *missing* tick number is benign.
 *  - A snapshot at tick T replaces the segment for that tick and
 *    carries absolute state: queued requests, the full transcript,
 *    breakers, the LKG cache, and cumulative counter totals. Writing
 *    one retires every record at or before the *previous* snapshot,
 *    so a torn newest snapshot can fall back to it.
 *  - A record that is *present but invalid* — truncated, garbage, or
 *    stamped with another config digest — is data loss: the store
 *    quarantines it (journal.quarantined_files) and replay stops at
 *    the record before it, because later deltas assume it applied.
 *
 * The config digest (journalConfigDigest()) excludes thread count and
 * snapshot cadence: they cannot change results, so changing them must
 * not invalidate a journal.
 *
 * Fault points (docs/robustness.md), keyed by the record's tick:
 * journal.write (the write fails, nothing lands) and
 * journal.torn_segment (only half the body lands — the case the
 * quarantine path exists for). journal.* stats are digest-excluded
 * like fi.*: a faulted-but-recovered run digest-matches a clean one.
 */

#ifndef DFAULT_SERVE_JOURNAL_HH
#define DFAULT_SERVE_JOURNAL_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/deferral.hh"
#include "obs/record_store.hh"
#include "serve/service.hh"

namespace dfault::obs {
class Registry;
}

namespace dfault::serve {

/** A queued-but-unresolved request, as journaled. */
struct JournalRequest
{
    std::uint64_t id = 0;
    std::uint64_t key = 0;
    int priority = 0; ///< Priority as int
    int shard = 0;
    std::uint64_t enqueueTick = 0;
    std::vector<double> features;
};

/** Post-record circuit-breaker state of one shard, as journaled. */
struct JournalBreaker
{
    int state = 0; ///< BreakerState as int
    int consecutive = 0;
    std::string window; ///< rolling outcomes, oldest first, '1' = failure
    int windowFailures = 0;
    std::uint64_t openedTick = 0;
    int probeSuccesses = 0;
};

/**
 * serve.* counter mutations accumulated between durable records (a
 * delta) or since service birth (a total). Serialized as
 * obs::StatOps so restore replays publication instead of recomputing
 * it, exactly like campaign checkpoint cells.
 */
struct CounterBlock
{
    std::uint64_t submitted = 0;
    std::uint64_t served = 0;
    std::uint64_t degraded = 0;
    std::uint64_t shed = 0;
    std::uint64_t shedCritical = 0;
    std::uint64_t shedHealth = 0;
    std::uint64_t shedBulk = 0;
    std::uint64_t breakerOpened = 0;
    std::uint64_t breakerHalfOpened = 0;
    std::uint64_t breakerClosed = 0;
    std::uint64_t ticks = 0;
};

/** @p block as CounterInc stat-ops (zero fields omitted). */
std::vector<obs::StatOp> counterBlockOps(const CounterBlock &block);

/** Accumulate the serve.* CounterInc ops in @p ops into @p block. */
void counterBlockAdd(CounterBlock &block,
                     const std::vector<obs::StatOp> &ops);

/** One tick's delta since the previous durable record. */
struct JournalSegment
{
    std::uint64_t tick = 0;
    std::uint64_t nextId = 0; ///< submission-id watermark after the tick
    std::vector<JournalRequest> admitted;
    std::vector<Response> responses; ///< in commit order
    std::vector<JournalBreaker> breakers;
    std::vector<obs::StatOp> statOps;
};

/** Absolute service state at one tick (a compacted snapshot). */
struct JournalSnapshot
{
    std::uint64_t tick = 0;
    std::uint64_t nextId = 0;
    std::vector<JournalRequest> queued; ///< FIFO order within each class
    std::vector<Response> responses;    ///< the full transcript so far
    std::vector<JournalBreaker> breakers;
    /** Last-known-good cache, sorted by key for a canonical encoding. */
    std::vector<std::pair<std::uint64_t, double>> lastKnownGood;
    std::vector<obs::StatOp> statOps; ///< cumulative counter totals
};

/**
 * Digest of everything that changes serving *results*: the service
 * tuning plus @p salt (the caller folds its traffic configuration in
 * — fleet_study hashes its workload and serving knobs). Excludes
 * resilience/cadence knobs (journalDir, snapshotEveryTicks, thread
 * count) exactly like sweepConfigDigest does.
 */
std::uint64_t journalConfigDigest(const Params &params);

std::string journalSegmentJson(const JournalSegment &seg,
                               std::uint64_t digest);
bool journalSegmentFromJson(const std::string &text, std::uint64_t digest,
                            JournalSegment &out,
                            std::string *error = nullptr);
std::string journalSnapshotJson(const JournalSnapshot &snap,
                                std::uint64_t digest);
bool journalSnapshotFromJson(const std::string &text, std::uint64_t digest,
                             JournalSnapshot &out,
                             std::string *error = nullptr);

/**
 * The on-disk journal. Not thread-safe; the owning service calls it
 * under its own lock from the single tick driver.
 */
class WriteAheadJournal
{
  public:
    /**
     * Bind to @p dir (created if missing; fatal when that fails) and
     * pin the config @p digest every record carries. @p registry
     * receives the journal.* stats (nullptr: the global registry).
     */
    void open(const std::string &dir, std::uint64_t digest,
              obs::Registry *registry = nullptr);

    bool enabled() const { return store_.enabled(); }

    /**
     * Durably append one tick record. Returns false when the write
     * fails (or journal.write fires): nothing landed, and the caller
     * keeps accumulating the delta into its next record.
     */
    bool writeSegment(const JournalSegment &seg);

    /** As writeSegment, for a compacted snapshot; also retires records
     * at or before the previous snapshot (keeping two snapshots). */
    bool writeSnapshot(const JournalSnapshot &snap);

    /** What load() recovered. */
    struct Restored
    {
        bool any = false; ///< false: nothing usable, start fresh
        std::uint64_t tick = 0; ///< last durable tick
        bool hasSnapshot = false;
        JournalSnapshot snapshot;
        /** Valid segments after the snapshot, ascending tick. */
        std::vector<JournalSegment> segments;
    };

    /**
     * Recover the newest consistent prefix: the newest valid snapshot
     * (invalid ones are quarantined and the next older tried), then
     * every valid segment after it up to — never across — the first
     * invalid record. See the file comment for why replay must stop
     * there rather than skip it. Call once, before any write.
     */
    Restored load();

  private:
    bool writeRecord(const obs::RecordKind &kind, std::uint64_t tick,
                     std::string body);

    obs::RecordStore store_;
    obs::Registry *registry_ = nullptr;
    /** Tick of the newest snapshot on disk; 0 when there is none. */
    std::uint64_t newestSnapshot_ = 0;
};

/**
 * Per-service journaling state (owned by PredictionService behind a
 * pointer so service.hh does not depend on this header).
 */
struct JournalState
{
    WriteAheadJournal wal;
    CounterBlock delta;  ///< since the last durable record
    CounterBlock total;  ///< lifetime, including restored history
    std::vector<JournalRequest> admitted; ///< enqueued since last record
    std::size_t flushedResponses = 0; ///< responses_ entries already durable
};

} // namespace dfault::serve

#endif // DFAULT_SERVE_JOURNAL_HH
