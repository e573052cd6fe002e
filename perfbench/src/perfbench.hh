/**
 * @file
 * Shared pieces of the end-to-end benchmark program: command-line
 * options, the in-memory span log, per-run result accumulation,
 * registry deltas, output digests and the three workloads' entry
 * points.
 *
 * Every timing here is taken from outside the library, around calls
 * into a layer's public functions; the library itself is unchanged.
 */

#ifndef DFAULT_PERFBENCH_PERFBENCH_HH
#define DFAULT_PERFBENCH_PERFBENCH_HH

#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/characterization.hh"
#include "obs/histogram.hh"

namespace perfbench {

/** Parsed command line. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    int threads = 2; ///< par::Pool size (the benchmark's fixed setting)
    std::string workDir; ///< directory for checkpoints and journals
    std::string outDir;  ///< where the traced run writes its span file
};

/** Seconds on the steady clock since an arbitrary epoch. */
double nowSeconds();

/** Independent 64-bit value derived from the run seed and a salt. */
std::uint64_t deriveSeed(std::uint64_t seed, const char *salt);

/**
 * In-memory span log: name, detail, start, end, parent span. Spans are
 * kept in memory and written out once when the run ends. Disabled
 * (the untraced metric runs) it records nothing.
 */
class SpanLog
{
  public:
    struct Record
    {
        int id = 0;
        int parent = -1;
        int thread = 0;
        std::string name;
        std::string detail;
        double start = 0.0;
        double end = 0.0;
        double seconds() const { return end - start; }
    };

    static SpanLog &instance();
    void setEnabled(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }
    int open(std::string name, std::string detail, int parent,
             double start);
    void close(int id, double end);
    /**
     * Per span name: count, total seconds and self seconds (duration
     * minus the part covered by direct children), by self time.
     */
    void printSummary(std::FILE *out) const;
    /** Chrome trace-event JSON (loadable in Perfetto). */
    bool write(const std::string &path) const;

  private:
    bool enabled_ = false;
    mutable std::mutex mutex_; ///< guards records_ (pool workers open spans)
    std::vector<Record> records_;
};

/**
 * RAII span around one call into a layer. Always measures (two clock
 * reads); appends to the SpanLog only when tracing is on. The parent
 * defaults to the innermost open span of the calling thread; pool
 * workers pass it explicitly.
 */
class Span
{
  public:
    static constexpr int kInheritParent = -2;

    explicit Span(const char *name, std::string detail = {},
                  int parent = kInheritParent);
    ~Span();
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** End the span now (idempotent) and return its length. */
    double stop();
    int id() const { return id_; }

  private:
    double start_ = 0.0;
    double seconds_ = -1.0;
    int id_ = -1;
    int savedCurrent_ = -1;
};

/** FNV-1a digest of simulated outputs. */
class Digest
{
  public:
    void add(double v);
    void add(std::uint64_t v);
    void add(const std::string &s);
    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 1469598103934665603ULL;
};

void digestProfile(Digest &d, const dfault::features::WorkloadProfile &p);
void digestMeasurement(Digest &d, const dfault::core::Measurement &m);

/** Numeric registry stats (counters, gauges) by name. */
using CounterMap = std::map<std::string, double>;
CounterMap readCounters();
CounterMap delta(const CounterMap &after, const CounterMap &before);
double get(const CounterMap &m, const std::string &name);
/** Loads plus stores over all cores (the instrumented access events). */
std::uint64_t memAccesses(const CounterMap &d);

/** A registry histogram's bucket counts between two snapshots. */
dfault::obs::HistogramSnapshot
histogramDelta(const dfault::obs::HistogramSnapshot &after,
               const dfault::obs::HistogramSnapshot &before);
dfault::obs::HistogramSnapshot histogramSnapshot(const std::string &name);

/** Byte and file totals of a directory tree. */
struct DirUsage
{
    std::uint64_t files = 0;
    std::uint64_t bytes = 0;
    std::uint64_t largestSnapshot = 0; ///< largest "snap-*" file
};
DirUsage dirUsage(const std::string &path);
/** Remove and recreate @p path as an empty directory. */
void freshDir(const std::string &path);

/** One reported metric: samples, unit, and how the value is formed. */
struct Metric
{
    std::string unit;
    std::vector<double> samples;
    enum class Reduce
    {
        Median, ///< one sample per iteration
        Last    ///< one value for the whole run
    } reduce = Reduce::Median;
    std::string note; ///< printed next to the value, e.g. the percentile

    double value() const;
};

/**
 * Everything one run produces: metrics by name, simulated counts that
 * must repeat exactly, the output digest per iteration, and failures.
 */
struct Result
{
    std::map<std::string, Metric> metrics;
    std::map<std::string, std::uint64_t> counts;
    std::vector<std::uint64_t> digests;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> problems; ///< failed correctness checks

    void add(const std::string &name, const std::string &unit, double v,
             Metric::Reduce reduce = Metric::Reduce::Median);
    /** Record one correctness check; a failed one counts in failed. */
    void check(bool ok, const std::string &what);
    /** Record a simulated count; it must equal earlier iterations'. */
    void count(const std::string &name, std::uint64_t v);
};

/** Peak resident set of this process in MiB. */
double peakRssMib();

/** Workload entry points: set up, run for opts.seconds, fill @p r. */
void runProfileCold(const Options &opts, Result &r);
void runCampaignEval(const Options &opts, Result &r);
void runFleetServe(const Options &opts, Result &r);

/** One profile of the traced per-config pass. */
struct ProfileJob
{
    dfault::sys::Platform *platform = nullptr;
    dfault::workloads::WorkloadConfig config;
};

/**
 * Traced per-config analysis of the profiling layers: profile each
 * job once on its platform with a recording sink on the bus, replay
 * the stream through fresh trace::ReuseTracker, trace::EntropySampler
 * and mem::MemoryHierarchy instances, and read the simulator counts
 * from the platform's own counters. Adds the trace.*, mem.*, dram.*
 * and sys.* per-layer metrics to @p r.
 */
void replayLayers(const std::vector<ProfileJob> &jobs,
                  const dfault::workloads::Workload::Params &wparams,
                  Result &r);

/** Median of the values, 0 when empty. */
double medianOf(const std::vector<double> &v);

} // namespace perfbench

#endif // DFAULT_PERFBENCH_PERFBENCH_HH
