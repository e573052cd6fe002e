/**
 * @file
 * The traced run's per-config attribution of the profiling layers.
 *
 * Timing the reuse tracker, the entropy sampler or the cache hierarchy
 * around each of their ~10 ns calls would perturb them, so the traced
 * run records a profile's access stream instead and replays it, one
 * chunk at a time, through fresh instances of each layer with a clock
 * pair around every chunk. The simulated counts are read from the real
 * platform's counters, never from the replay.
 */

#include "features/extractor.hh"
#include "mem/hierarchy.hh"
#include "perfbench.hh"
#include "trace/entropy_sampler.hh"
#include "trace/reuse_tracker.hh"

namespace perfbench {

namespace {

using namespace dfault;

/** Records the bus stream and replays each full chunk through fresh
 *  layer instances, timing each layer separately. */
class ReplaySink : public trace::AccessSink
{
  public:
    static constexpr std::size_t kChunk = 1 << 15;

    ReplaySink(const sys::Platform &platform, std::uint64_t footprint)
        : reuse(footprint + footprint / 4 + (4 << 20)),
          hierarchy(platform.geometry(), platform.params().hierarchy)
    {
        chunk_.reserve(kChunk);
    }

    void onAccess(const trace::AccessEvent &event) override
    {
        chunk_.push_back(event);
        if (chunk_.size() == kChunk)
            flush();
    }

    void flush()
    {
        const double t0 = nowSeconds();
        for (const auto &e : chunk_)
            reuse.onAccess(e);
        const double t1 = nowSeconds();
        for (const auto &e : chunk_)
            entropy.onAccess(e);
        const double t2 = nowSeconds();
        const int cores = hierarchy.cores();
        for (const auto &e : chunk_)
            cycle_ += 1 + hierarchy.access(e.thread % cores, e.addr,
                                            e.isWrite, cycle_) /
                              4;
        const double t3 = nowSeconds();
        reuseSeconds += t1 - t0;
        entropySeconds += t2 - t1;
        hierarchySeconds += t3 - t2;
        events += chunk_.size();
        chunk_.clear();
    }

    double replaySeconds() const
    {
        return reuseSeconds + entropySeconds + hierarchySeconds;
    }

    trace::ReuseTracker reuse;
    trace::EntropySampler entropy;
    mem::MemoryHierarchy hierarchy;
    double reuseSeconds = 0.0;
    double entropySeconds = 0.0;
    double hierarchySeconds = 0.0;
    std::uint64_t events = 0;

  private:
    std::vector<trace::AccessEvent> chunk_;
    Cycles cycle_ = 0;
};

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

} // namespace

void
replayLayers(const std::vector<ProfileJob> &jobs,
             const workloads::Workload::Params &wparams, Result &r)
{
    const Span all("replay.layers");
    double reuse_s = 0.0, entropy_s = 0.0, hier_s = 0.0, self_s = 0.0;
    std::uint64_t events = 0, sampled = 0, instructions = 0,
                  mem_accesses = 0;
    std::vector<double> finalize_ms;
    mem::CacheCounters l1, l2;
    dram::McuCounters mcu;

    for (const auto &[platform_ptr, config] : jobs) {
        sys::Platform &platform = *platform_ptr;
        const CounterMap before = readCounters();
        ReplaySink sink(platform, wparams.footprintBytes);
        platform.bus().attach(&sink);
        Span span("features.extractProfile", config.label);
        const features::WorkloadProfile profile =
            features::extractProfile(platform, config, wparams);
        const double profile_s = span.stop();
        platform.bus().detach(&sink);
        // The chunks replayed inline ran inside the profile's interval.
        const double inline_replay = sink.replaySeconds();
        sink.flush();

        const double f0 = nowSeconds();
        const double entropy_bits = sink.entropy.entropyBits();
        finalize_ms.push_back((nowSeconds() - f0) * 1e3);

        const CounterMap d = delta(readCounters(), before);
        const std::uint64_t loads_stores = memAccesses(d);

        // Derived: the profile's own time (without the inline replay)
        // minus what the replays attribute to the three layers.
        self_s += (profile_s - inline_replay) - sink.replaySeconds();
        reuse_s += sink.reuseSeconds;
        entropy_s += sink.entropySeconds;
        hier_s += sink.hierarchySeconds;
        events += sink.events;
        sampled += sink.entropy.sampledStores();
        instructions += static_cast<std::uint64_t>(
            get(d, "platform.exec.instructions"));
        mem_accesses += loads_stores;

        const auto &h = platform.hierarchy();
        const auto l1c = h.l1CountersTotal();
        const auto &l2c = h.l2Counters();
        l1.readAccesses += l1c.readAccesses;
        l1.writeAccesses += l1c.writeAccesses;
        l1.readMisses += l1c.readMisses;
        l1.writeMisses += l1c.writeMisses;
        l1.writebacks += l1c.writebacks;
        l2.readAccesses += l2c.readAccesses;
        l2.writeAccesses += l2c.writeAccesses;
        l2.readMisses += l2c.readMisses;
        l2.writeMisses += l2c.writeMisses;
        l2.writebacks += l2c.writebacks;
        for (int m = 0; m < h.mcuCount(); ++m) {
            const auto &c = h.mcu(m).counters();
            mcu.readCmds += c.readCmds;
            mcu.writeCmds += c.writeCmds;
            mcu.activations += c.activations;
            mcu.rowHits += c.rowHits;
            mcu.rowMisses += c.rowMisses;
        }

        // The replay must have seen the same stream the real sinks did.
        r.check(sink.events == loads_stores,
                config.label + ": recorded events != loads + stores");
        r.check(entropy_bits == profile.entropy,
                config.label + ": replayed entropy != profile entropy");
        r.check(sink.hierarchy.l2Counters().accesses() == l2c.accesses(),
                config.label + ": replayed L2 accesses != platform's");
        r.check(l2c.accesses() == l1c.misses() + l1c.writebacks,
                config.label + ": L2 accesses != L1 misses + writebacks");
    }

    using R = Metric::Reduce;
    const double ev = static_cast<double>(events);
    r.add("trace.events", "count", ev, R::Last);
    r.add("trace.reuse.ns_per_event", "ns", ratio(reuse_s * 1e9, ev),
          R::Last);
    r.add("trace.entropy.ns_per_event", "ns", ratio(entropy_s * 1e9, ev),
          R::Last);
    r.add("trace.entropy.finalize_ms", "ms", medianOf(finalize_ms),
          R::Last);
    r.add("trace.entropy.sampled_stores", "count",
          static_cast<double>(sampled), R::Last);
    r.add("mem.hierarchy.ns_per_access", "ns", ratio(hier_s * 1e9, ev),
          R::Last);
    r.add("mem.l1.accesses", "count", static_cast<double>(l1.accesses()),
          R::Last);
    r.add("mem.l1.miss_ratio", "ratio",
          ratio(static_cast<double>(l1.misses()),
                static_cast<double>(l1.accesses())),
          R::Last);
    r.add("mem.l2.accesses", "count", static_cast<double>(l2.accesses()),
          R::Last);
    r.add("mem.l2.miss_ratio", "ratio",
          ratio(static_cast<double>(l2.misses()),
                static_cast<double>(l2.accesses())),
          R::Last);
    r.add("dram.cmds", "count", static_cast<double>(mcu.totalCmds()),
          R::Last);
    r.add("dram.activations", "count",
          static_cast<double>(mcu.activations), R::Last);
    r.add("dram.row_hit_ratio", "ratio",
          ratio(static_cast<double>(mcu.rowHits),
                static_cast<double>(mcu.rowHits + mcu.rowMisses)),
          R::Last);
    r.add("sys.instructions", "count", static_cast<double>(instructions),
          R::Last);
    r.add("sys.mem_accesses", "count", static_cast<double>(mem_accesses),
          R::Last);
    r.add("sys.kernel_self_s", "s", self_s, R::Last);
    r.metrics["sys.kernel_self_s"].note =
        "derived: profile time minus the three layer replays";

    r.count("trace.events", events);
    r.count("trace.entropy.sampled_stores", sampled);
    r.count("mem.l1.accesses", l1.accesses());
    r.count("mem.l1.misses", l1.misses());
    r.count("mem.l2.accesses", l2.accesses());
    r.count("mem.l2.misses", l2.misses());
    r.count("dram.cmds", mcu.totalCmds());
    r.count("dram.activations", mcu.activations);
}

} // namespace perfbench
