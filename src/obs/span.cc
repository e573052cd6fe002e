#include "obs/span.hh"

#include <algorithm>

#include "common/logging.hh"

namespace dfault::obs {

thread_local std::shared_ptr<SpanTracer::ThreadRing>
    SpanTracer::t_ring_;

SpanTracer &
SpanTracer::instance()
{
    static SpanTracer tracer;
    return tracer;
}

void
SpanTracer::enable(std::size_t ring_capacity)
{
    DFAULT_ASSERT(ring_capacity > 0, "span ring capacity must be > 0");
    std::lock_guard<std::mutex> lock(mutex_);
    // Discard prior entries and the spans of still-open scopes: ids
    // restart at 1, so an old id must not parent a new span. The
    // scopes' paths stay, since live timers still publish under them.
    for (const auto &ring : rings_) {
        std::lock_guard<std::mutex> ring_lock(ring->mutex);
        ring->ring.clear();
        ring->next = 0;
        ring->dropped = 0;
        for (Frame &frame : ring->frames) {
            frame.span = 0;
            frame.parent = 0;
        }
    }
    capacity_.store(ring_capacity, std::memory_order_relaxed);
    epoch_ = std::chrono::steady_clock::now();
    nextId_.store(1, std::memory_order_relaxed);
    enabled_.store(true, std::memory_order_relaxed);
}

void
SpanTracer::disable()
{
    enabled_.store(false, std::memory_order_relaxed);
}

std::uint64_t
SpanTracer::newId()
{
    return nextId_.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t
SpanTracer::nowNs() const
{
    if (epoch_ == std::chrono::steady_clock::time_point{})
        return 0;
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
}

SpanTracer::ThreadRing &
SpanTracer::localRing(bool record)
{
    if (!t_ring_)
        t_ring_ = std::make_shared<ThreadRing>();
    ThreadRing &ring = *t_ring_;
    if (record && !ring.registered) {
        std::lock_guard<std::mutex> lock(mutex_);
        ring.tid = static_cast<std::uint32_t>(rings_.size());
        rings_.push_back(t_ring_);
        ring.registered = true;
    }
    return ring;
}

void
SpanTracer::push(ThreadRing &ring, TraceEntry entry)
{
    const std::size_t capacity =
        capacity_.load(std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(ring.mutex);
    if (ring.ring.size() < capacity) {
        ring.ring.push_back(std::move(entry));
        ring.next = ring.ring.size() % capacity;
        return;
    }
    // Full: overwrite the oldest entry so the newest spans survive.
    ring.ring[ring.next] = std::move(entry);
    ring.next = (ring.next + 1) % capacity;
    ++ring.dropped;
}

TraceEntry
SpanTracer::spanEntry(std::uint32_t tid, const Frame &frame,
                      std::uint64_t end_ns)
{
    TraceEntry entry;
    entry.kind = TraceKind::Span;
    entry.tid = tid;
    entry.id = frame.span;
    entry.parent = frame.parent;
    entry.startNs = frame.startNs;
    entry.endNs = end_ns;
    // A timer's span is named after its own path segment; a task's is
    // "task", with "task" as its path too at top level.
    entry.name = frame.task ? "task"
                            : frame.path.substr(frame.path.rfind('.') + 1);
    entry.path = frame.path.empty() ? entry.name : frame.path;
    entry.detail = frame.detail;
    return entry;
}

std::size_t
SpanTracer::openFrame(std::string_view phase, const Scope *adopted)
{
    const bool tracing = enabled();
    ThreadRing &ring = localRing(tracing);
    std::lock_guard<std::mutex> lock(ring.mutex);
    // Build the frame completely before pushing it: if an allocation
    // throws, the stack is exactly as it was.
    Frame frame;
    if (adopted != nullptr) {
        frame.path = adopted->path;
        frame.parent = adopted->span;
        frame.task = true;
    } else {
        if (!ring.frames.empty()) {
            const Frame &outer = ring.frames.back();
            if (!outer.path.empty())
                frame.path = outer.path + '.';
            frame.parent = outer.span;
        }
        frame.path += phase;
    }
    if (tracing) {
        frame.span = newId();
        frame.startNs = nowNs();
    } else {
        // Untraced frames carry no span ids: enable() resets ids only
        // on registered rings, and this one may not be.
        frame.parent = 0;
    }
    ring.frames.push_back(std::move(frame));
    return ring.frames.size();
}

std::string
SpanTracer::closeFrame(std::size_t depth)
{
    ThreadRing &ring = *t_ring_;
    Frame frame;
    {
        std::lock_guard<std::mutex> lock(ring.mutex);
        DFAULT_ASSERT(ring.frames.size() == depth,
                      "scope stack corrupted: scopes must strictly nest");
        frame = std::move(ring.frames.back());
        ring.frames.pop_back();
    }
    // exported: drain() already finalized this span.
    if (frame.span != 0 && !frame.exported)
        push(ring, spanEntry(ring.tid, frame, nowNs()));
    return std::move(frame.path);
}

Scope
currentScope()
{
    const auto &ring = SpanTracer::t_ring_;
    if (!ring)
        return {};
    std::lock_guard<std::mutex> lock(ring->mutex);
    if (ring->frames.empty())
        return {};
    return {ring->frames.back().path, ring->frames.back().span};
}

void
SpanTracer::annotateCurrent(std::string_view detail)
{
    if (!enabled() || !t_ring_)
        return;
    std::lock_guard<std::mutex> lock(t_ring_->mutex);
    if (!t_ring_->frames.empty() && t_ring_->frames.back().span != 0)
        t_ring_->frames.back().detail = detail;
}

void
SpanTracer::flowEvent(TraceKind kind, std::uint64_t flow_id,
                      std::string_view path)
{
    if (!enabled())
        return;
    DFAULT_ASSERT(kind == TraceKind::FlowBegin ||
                      kind == TraceKind::FlowEnd,
                  "flowEvent takes FlowBegin or FlowEnd");
    ThreadRing &ring = localRing();
    TraceEntry entry;
    entry.kind = kind;
    entry.tid = ring.tid;
    entry.id = flow_id;
    entry.startNs = nowNs();
    entry.path = path;
    push(ring, std::move(entry));
}

void
SpanTracer::sampleCounters(const Registry &registry)
{
    if (!enabled())
        return;
    ThreadRing &ring = localRing();
    const std::uint64_t now = nowNs();
    for (const std::string &name : registry.names()) {
        if (registry.kindOf(name) != StatKind::Counter)
            continue;
        TraceEntry entry;
        entry.kind = TraceKind::CounterSample;
        entry.tid = ring.tid;
        entry.startNs = now;
        entry.name = name;
        entry.value = registry.value(name);
        push(ring, std::move(entry));
    }
}

std::vector<TraceEntry>
SpanTracer::drain()
{
    std::vector<std::shared_ptr<ThreadRing>> rings;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        rings = rings_;
    }
    const std::uint64_t now = nowNs();
    std::vector<TraceEntry> out;
    for (const auto &ring : rings) {
        std::lock_guard<std::mutex> lock(ring->mutex);
        const std::size_t n = ring->ring.size();
        if (n > 0) {
            // Oldest first: the overwrite cursor points at the oldest
            // entry once the ring has wrapped.
            const std::size_t first = ring->next % n;
            for (std::size_t k = 0; k < n; ++k)
                out.push_back(ring->ring[(first + k) % n]);
        }
        // Finalize half-open spans at the drain timestamp; mark them
        // exported so the eventual real end is dropped, not recorded
        // as a duplicate.
        for (Frame &frame : ring->frames) {
            if (frame.span == 0 || frame.exported)
                continue;
            frame.exported = true;
            out.push_back(spanEntry(ring->tid, frame, now));
        }
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const TraceEntry &a, const TraceEntry &b) {
                         return a.startNs < b.startNs;
                     });
    return out;
}

std::uint64_t
SpanTracer::dropped() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::uint64_t total = 0;
    for (const auto &ring : rings_) {
        std::lock_guard<std::mutex> ring_lock(ring->mutex);
        total += ring->dropped;
    }
    return total;
}

std::uint64_t
SpanTracer::spanCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::uint64_t total = 0;
    for (const auto &ring : rings_) {
        std::lock_guard<std::mutex> ring_lock(ring->mutex);
        for (const TraceEntry &entry : ring->ring)
            if (entry.kind == TraceKind::Span)
                ++total;
    }
    return total;
}

ScopedTimer::ScopedTimer(std::string_view phase, Registry *registry)
    : registry_(registry != nullptr ? *registry : Registry::instance()),
      start_(std::chrono::steady_clock::now())
{
    DFAULT_ASSERT(!phase.empty(), "timer phase name must be non-empty");
    DFAULT_ASSERT(phase.find('.') == std::string_view::npos,
                  "timer phase must be a single path segment: ", phase);
    depth_ = SpanTracer::instance().openFrame(phase, nullptr);
    if (AllocTracker::enabled()) {
        allocActive_ = true;
        allocStart_ = AllocTracker::threadTotals();
    }
    // Sample counters last so the phase's delta excludes this timer's
    // own setup.
    if (PerfCounters::phaseProfiling()) {
        perfActive_ = true;
        perfStart_ = PerfCounters::threadInstance().sample();
    }
}

ScopedTimer::~ScopedTimer()
{
    const double seconds = elapsed();
    // Counter end-sample first: everything below is timer teardown,
    // not phase work.
    PerfSample perfEnd;
    if (perfActive_)
        perfEnd = PerfCounters::threadInstance().sample();
    auto &tracer = SpanTracer::instance();
    const std::string path = tracer.closeFrame(depth_);
    registry_.gauge("time." + path + ".seconds",
                    "wall-clock seconds inside phase " + path)
        .add(seconds);
    registry_.counter("time." + path + ".calls",
                      "entries into phase " + path)
        .inc();
    if (perfActive_)
        publishPerfDelta(registry_, "perf.phase." + path,
                         perfEnd.deltaSince(perfStart_));
    if (allocActive_) {
        const AllocTracker::Totals end = AllocTracker::threadTotals();
        registry_
            .gauge("alloc.phase." + path + ".bytes",
                   "heap bytes allocated inside phase " + path)
            .add(static_cast<double>(end.bytes - allocStart_.bytes));
        registry_
            .counter("alloc.phase." + path + ".allocs",
                     "heap allocations inside phase " + path)
            .inc(end.allocs - allocStart_.allocs);
    }
    // A top-level phase boundary: snapshot the counters this run has
    // accumulated so the trace gets a counter-track data point.
    if (path.find('.') == std::string::npos && tracer.enabled())
        tracer.sampleCounters(registry_);
}

double
ScopedTimer::elapsed() const
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start_)
        .count();
}

ScopedTask::ScopedTask(const Scope &scope)
    : depth_(SpanTracer::instance().openFrame({}, &scope))
{
}

ScopedTask::~ScopedTask()
{
    SpanTracer::instance().closeFrame(depth_);
}

std::vector<PhaseTime>
phaseTimes(const Registry *registry)
{
    const Registry &reg =
        registry != nullptr ? *registry : Registry::instance();
    constexpr std::string_view prefix = "time.";
    constexpr std::string_view suffix = ".seconds";
    std::vector<PhaseTime> out;
    for (const std::string &name : reg.names()) {
        if (!name.starts_with(prefix) || !name.ends_with(suffix))
            continue;
        PhaseTime pt;
        pt.path = name.substr(prefix.size(), name.size() - prefix.size() -
                                                 suffix.size());
        pt.seconds = reg.value(name);
        const std::string calls = std::string(prefix) + pt.path + ".calls";
        pt.calls = reg.has(calls)
                       ? static_cast<std::uint64_t>(reg.value(calls))
                       : 0;
        out.push_back(std::move(pt));
    }
    // Registry order sorts "<p>.seconds" after "<p>.<child>.seconds";
    // sorting by path puts parents before their children.
    std::sort(out.begin(), out.end(),
              [](const PhaseTime &a, const PhaseTime &b) {
                  return a.path < b.path;
              });
    return out;
}

} // namespace dfault::obs
