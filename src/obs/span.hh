/**
 * @file
 * Phases and spans: one per-thread scope stack under scoped timers,
 * pool task dispatch and the span tracer.
 *
 * Every thread keeps a stack of scope frames. A frame holds the dotted
 * phase path of its scope ("cross_validate.fold.train") and, when the
 * span tracer is enabled, the id of the span it opened (0 otherwise).
 * Two kinds of frame push onto it:
 *
 * - A ScopedTimer frame extends the enclosing path by one segment and
 *   accumulates, when it closes, into the stats registry:
 *
 *     time.<path>.seconds   (Gauge)    total wall-clock inside the phase
 *     time.<path>.calls     (Counter)  times the phase was entered
 *
 *   Nested phases therefore report *inclusive* time: the parent's
 *   seconds contain the children's. Timing uses the steady clock; one
 *   timer costs two clock reads, an uncontended lock per push and pop
 *   and two relaxed atomic updates, negligible at the phase
 *   granularity used here (per measurement / per fold, never per
 *   access). Two opt-in attributions ride on the same bracket: with
 *   PerfCounters::setPhaseProfiling(true) the timer accumulates the
 *   calling thread's hardware-counter delta under perf.phase.<path>.*
 *   (obs/perf_counters.hh), and with AllocTracker::enable() its heap
 *   allocation volume under alloc.phase.<path>.bytes/.allocs
 *   (obs/alloc_tracker.hh). Both are inclusive like the timings, and
 *   both stat families are excluded from manifest digests.
 *
 * - A ScopedTask frame runs code under a Scope captured on another
 *   thread: it keeps the captured path (so timers inside parallel work
 *   accumulate under the same dotted paths as a serial execution) and
 *   opens a "task" span parented to the captured span. par::Pool wraps
 *   every executed task in one; a Scope {path, span} is all a batch
 *   carries across dispatch.
 *
 * Spans. A span is one timed interval on one thread: begin/end
 * timestamps (nanoseconds since the tracer was enabled), the thread
 * that ran it, and the span that encloses it. Pool dispatch
 * additionally records flow events linking the moment a task was
 * queued on the submitter to the moment a worker picked it up, and the
 * end of a top-level phase samples the registry's counters into
 * counter tracks. Recording is wait-free with respect to other
 * threads: each thread owns a bounded ring (default 64 Ki entries)
 * guarded by a mutex that is only ever contended by drain() and
 * enable(). When a ring is full the *oldest* entries are overwritten,
 * so a trace always keeps the newest spans and reports how many were
 * dropped. At drain time any span still open (a timer alive during
 * export) is finalized with the drain timestamp; its later real end is
 * discarded. A disabled tracer costs one relaxed atomic load per frame.
 * See trace_writer.hh for the Chrome trace-event JSON exporter and the
 * exclusive-time attribution built on the drained entries.
 */

#ifndef DFAULT_OBS_SPAN_HH
#define DFAULT_OBS_SPAN_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/alloc_tracker.hh"
#include "obs/perf_counters.hh"
#include "obs/stats.hh"

namespace dfault::obs {

/** What one ring-buffer record describes. */
enum class TraceKind : std::uint8_t
{
    Span,          ///< completed (or drain-finalized) interval
    FlowBegin,     ///< pool task queued on the submitting thread
    FlowEnd,       ///< the same task picked up by an executing thread
    CounterSample, ///< cumulative stat value at a phase boundary
};

/** One drained trace record; field use depends on kind. */
struct TraceEntry
{
    TraceKind kind = TraceKind::Span;
    std::uint32_t tid = 0;     ///< tracer-assigned thread index
    std::uint64_t id = 0;      ///< span id, or flow id for flow events
    std::uint64_t parent = 0;  ///< enclosing span id (0 = thread root)
    std::uint64_t startNs = 0; ///< since the tracer was enabled
    std::uint64_t endNs = 0;   ///< spans only
    std::string name;          ///< phase segment / counter name
    std::string path;          ///< full dotted phase path at begin
    std::string detail;        ///< free-form annotation (args.detail)
    double value = 0.0;        ///< counter samples only
};

/** Where a thread is: what a pool batch carries across dispatch. */
struct Scope
{
    std::string path;       ///< dotted phase path ("" at top level)
    std::uint64_t span = 0; ///< innermost open span (0 = none)
};

/** The calling thread's innermost scope. */
Scope currentScope();

/** See file comment. */
class SpanTracer
{
  public:
    static constexpr std::size_t kDefaultRingCapacity = 1 << 16;

    /** The process-wide tracer shared by timers and the pool. */
    static SpanTracer &instance();

    SpanTracer() = default;
    SpanTracer(const SpanTracer &) = delete;
    SpanTracer &operator=(const SpanTracer &) = delete;

    /**
     * Start recording. @p ring_capacity bounds the entries kept *per
     * thread*; older entries are overwritten once a ring fills.
     * Re-enabling resets the epoch and span ids and discards prior
     * entries; scopes still open keep their paths but lose their
     * spans.
     */
    void enable(std::size_t ring_capacity = kDefaultRingCapacity);

    /** Stop recording (drained entries remain until the next enable). */
    void disable();

    /** Cheap producer-side guard: one relaxed atomic load. */
    bool enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /** Fresh process-unique id for a span or flow arrow. */
    std::uint64_t newId();

    /**
     * Attach a free-form annotation to the calling thread's innermost
     * open span (exported as args.detail — e.g. which workload a
     * "measure" span instance ran). No-op when disabled or outside
     * any span; the last annotation wins.
     */
    void annotateCurrent(std::string_view detail);

    /** Record one side of a submission->execution flow arrow. */
    void flowEvent(TraceKind kind, std::uint64_t flow_id,
                   std::string_view path);

    /**
     * Record the cumulative value of every Counter in @p registry as a
     * CounterSample (drawn as counter tracks in Perfetto). ScopedTimer
     * calls this when a top-level phase ends.
     */
    void sampleCounters(const Registry &registry);

    /**
     * Copy out every recorded entry, oldest first per thread, merged
     * and sorted by startNs. Spans still open are finalized at the
     * drain timestamp (their later real end is discarded, not
     * recorded twice).
     */
    std::vector<TraceEntry> drain();

    /** Entries overwritten by ring wraparound since enable(). */
    std::uint64_t dropped() const;

    /** Completed span records currently held across all rings. */
    std::uint64_t spanCount() const;

    /** Nanoseconds since enable() (0 when never enabled). */
    std::uint64_t nowNs() const;

  private:
    friend class ScopedTimer;
    friend class ScopedTask;
    friend Scope currentScope();

    /** One entry of a thread's scope stack. */
    struct Frame
    {
        std::string path;         ///< dotted phase path of the scope
        std::uint64_t span = 0;   ///< open span id, 0 when none
        std::uint64_t parent = 0; ///< enclosing span id
        std::uint64_t startNs = 0;
        std::string detail;
        bool task = false;     ///< pool task frame: span named "task"
        bool exported = false; ///< finalized by drain(); drop real end
    };

    /**
     * Per-thread state; shared_ptr keeps it alive past thread exit. A
     * thread registers (and gets its trace tid) at its first record.
     */
    struct ThreadRing
    {
        std::mutex mutex;
        bool registered = false; ///< written by the owning thread only
        std::uint32_t tid = 0;
        std::vector<TraceEntry> ring; ///< capacity fixed at enable
        std::size_t next = 0;         ///< overwrite cursor (oldest)
        std::uint64_t dropped = 0;
        std::vector<Frame> frames;    ///< scope stack, innermost last
    };

    /** The calling thread's state, registered for recording when
     *  @p record. */
    ThreadRing &localRing(bool record = true);
    void push(ThreadRing &ring, TraceEntry entry);
    /** The Span record of @p frame, ending at @p end_ns. */
    static TraceEntry spanEntry(std::uint32_t tid, const Frame &frame,
                                std::uint64_t end_ns);

    /**
     * Push a frame: the enclosing path extended by @p phase, or the
     * path of @p adopted (a task frame) when non-null. Opens a span
     * when tracing. Returns the stack depth with the new frame.
     */
    std::size_t openFrame(std::string_view phase, const Scope *adopted);
    /** Pop the frame at @p depth, recording its span; returns its
     *  path. */
    std::string closeFrame(std::size_t depth);

    static thread_local std::shared_ptr<ThreadRing> t_ring_;

    std::atomic<bool> enabled_{false};
    std::atomic<std::uint64_t> nextId_{1};
    std::chrono::steady_clock::time_point epoch_{};
    mutable std::mutex mutex_; ///< guards rings_
    std::vector<std::shared_ptr<ThreadRing>> rings_;
    std::atomic<std::size_t> capacity_{kDefaultRingCapacity};
};

/** See file comment. */
class ScopedTimer
{
  public:
    /**
     * Enter phase @p phase (a single path segment, no dots) of
     * @p registry; the destructor leaves the phase and accumulates the
     * elapsed wall time. Defaults to the global registry.
     */
    explicit ScopedTimer(std::string_view phase,
                         Registry *registry = nullptr);
    ~ScopedTimer();

    ScopedTimer(const ScopedTimer &) = delete;
    ScopedTimer &operator=(const ScopedTimer &) = delete;

    /** Elapsed seconds since this timer started. */
    double elapsed() const;

  private:
    Registry &registry_;
    std::size_t depth_ = 0; ///< scope stack depth with this frame
    std::chrono::steady_clock::time_point start_;
    PerfSample perfStart_;          ///< used when perfActive_
    AllocTracker::Totals allocStart_; ///< used when allocActive_
    bool perfActive_ = false;  ///< phase profiling was on at entry
    bool allocActive_ = false; ///< alloc tracking was on at entry
};

/** See file comment. */
class ScopedTask
{
  public:
    explicit ScopedTask(const Scope &scope);
    ~ScopedTask();

    ScopedTask(const ScopedTask &) = delete;
    ScopedTask &operator=(const ScopedTask &) = delete;

  private:
    std::size_t depth_ = 0;
};

/** Accumulated timing of one phase path, for reports. */
struct PhaseTime
{
    std::string path;    ///< dotted phase path, e.g. "profile"
    double seconds = 0.0;
    std::uint64_t calls = 0;
};

/**
 * All phases recorded in @p registry (stats named time.<path>.seconds),
 * sorted by path. Defaults to the global registry.
 */
std::vector<PhaseTime> phaseTimes(const Registry *registry = nullptr);

} // namespace dfault::obs

#endif // DFAULT_OBS_SPAN_HH
