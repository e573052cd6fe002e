/**
 * @file
 * End-to-end benchmark program.
 *
 *   dfault_perfbench --workload <profile_cold|campaign_eval|fleet_serve>
 *                    --seed <n> --seconds <s> --trace <0|1>
 *                    [--threads <n>] [--reference <file>]
 *                    [--work-dir <dir>] [--out-dir <dir>]
 *
 * Prints a human-readable report (every metric with its unit and
 * sample count, the simulated counts that must repeat exactly, the
 * output digest and the host stamp), then, as the last line of
 * standard output, one JSON object:
 *   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
 * With --trace 0 the metrics are the end-to-end ones, measured with
 * tracing off; with --trace 1 they are the per-layer ones, and the
 * span log is written to <out-dir>/spans-<workload>-seed<n>.json.
 */

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <unistd.h>

#include "par/pool.hh"
#include "perfbench.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

struct MetricSpec
{
    const char *name;
    const char *unit;
};

// These lists are BENCHMARK.json's end_to_end and per_layer, in order.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"wall_s", "s"},
    {"cells_per_s", "1/s"},
    {"profile_minstr_per_s", "Minstr/s"},
    {"peak_rss_mib", "MiB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"features.profile.calls", "count"},
    {"features.profile.busy_s", "s"},
    {"features.profile.ms_p50", "ms"},
    {"features.profile.ms_max", "ms"},
    {"features.profiles_computed", "count"},
    {"features.cache_hit_ratio", "ratio"},
    {"sys.instructions", "count"},
    {"sys.mem_accesses", "count"},
    {"sys.kernel_self_s", "s"},
    {"trace.events", "count"},
    {"trace.reuse.ns_per_event", "ns"},
    {"trace.entropy.ns_per_event", "ns"},
    {"trace.entropy.finalize_ms", "ms"},
    {"trace.entropy.sampled_stores", "count"},
    {"mem.hierarchy.ns_per_access", "ns"},
    {"mem.l1.accesses", "count"},
    {"mem.l1.miss_ratio", "ratio"},
    {"mem.l2.accesses", "count"},
    {"mem.l2.miss_ratio", "ratio"},
    {"dram.cmds", "count"},
    {"dram.activations", "count"},
    {"dram.row_hit_ratio", "ratio"},
    {"core.cells", "count"},
    {"core.cell_ms_p50", "ms"},
    {"core.cell_ms_p99", "ms"},
    {"core.sweep_s", "s"},
    {"core.pue_s", "s"},
    {"core.dataset_s", "s"},
    {"core.checkpoint.bytes", "B"},
    {"core.checkpoint.files", "count"},
    {"ml.lobo.svm_s", "s"},
    {"ml.lobo.knn_s", "s"},
    {"ml.lobo.rdf_s", "s"},
    {"ml.lobo.folds", "count"},
    {"ml.lobo.folds_per_s", "1/s"},
    {"ml.forest_fit_s", "s"},
    {"serve.req_per_s", "1/s"},
    {"serve.tick_p50_ms", "ms"},
    {"serve.tick_tail_ms", "ms"},
    {"serve.submit_us_p99", "us"},
    {"serve.ticks", "count"},
    {"serve.served", "count"},
    {"serve.degraded", "count"},
    {"serve.shed", "count"},
    {"serve.journal.bytes", "B"},
    {"serve.journal.files", "count"},
    {"serve.snapshot_bytes_max", "B"},
    {"par.tasks", "count"},
    {"par.busy_share", "ratio"},
    {"obs.trace_overhead_share", "ratio"},
};

[[noreturn]] void
usage(const std::string &error)
{
    std::fprintf(stderr,
                 "error: %s\nusage: dfault_perfbench --workload "
                 "<profile_cold|campaign_eval|fleet_serve> --seed <n> "
                 "--seconds <s> --trace <0|1> [--threads <n>] "
                 "[--reference <file>] [--work-dir <dir>] "
                 "[--out-dir <dir>]\n",
                 error.c_str());
    std::exit(2);
}

/** True when the build is optimized and carries no sanitizer. */
bool
timingBuild()
{
#if !defined(__OPTIMIZE__) || defined(__SANITIZE_ADDRESS__) ||            \
    defined(__SANITIZE_THREAD__) || defined(PERFBENCH_SANITIZED)
    return false;
#else
    return true;
#endif
}

/**
 * Reference digests: lines "<workload> <seed> <hex digest>", '#'
 * comments. Returns 0 when the file has no line for this run.
 */
std::uint64_t
referenceDigest(const std::string &path, const std::string &workload,
                std::uint64_t seed)
{
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string w, hex;
        std::uint64_t s = 0;
        if (fields >> w >> s >> hex && w == workload && s == seed)
            return std::stoull(hex, nullptr, 16);
    }
    return 0;
}

std::string
formatValue(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    std::string reference;
    bool have_workload = false, have_seed = false, have_seconds = false,
         have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + key);
        const std::string value = argv[++i];
        try {
            if (key == "--workload") {
                o.workload = value;
                have_workload = true;
            } else if (key == "--seed") {
                o.seed = std::stoull(value);
                have_seed = true;
            } else if (key == "--seconds") {
                o.seconds = std::stod(value);
                have_seconds = true;
            } else if (key == "--trace") {
                if (value != "0" && value != "1")
                    usage("--trace takes 0 or 1");
                o.trace = value == "1";
                have_trace = true;
            } else if (key == "--threads") {
                o.threads = std::stoi(value);
            } else if (key == "--reference") {
                reference = value;
            } else if (key == "--work-dir") {
                o.workDir = value;
            } else if (key == "--out-dir") {
                o.outDir = value;
            } else {
                usage("unknown option " + key);
            }
        } catch (const std::logic_error &) {
            usage("bad value '" + value + "' for " + key);
        }
    }
    if (!have_workload || !have_seed || !have_seconds || !have_trace)
        usage("--workload, --seed, --seconds and --trace are required");
    if (!(o.seconds > 0.0 && o.seconds <= 3600.0))
        usage("--seconds must be in (0, 3600]");
    if (o.threads < 1 || o.threads > 64)
        usage("--threads must be in [1, 64]");
    void (*run)(const Options &, Result &) = nullptr;
    if (o.workload == "profile_cold")
        run = runProfileCold;
    else if (o.workload == "campaign_eval")
        run = runCampaignEval;
    else if (o.workload == "fleet_serve")
        run = runFleetServe;
    else
        usage("unknown workload '" + o.workload + "'");
    if (!timingBuild()) {
        std::fprintf(stderr,
                     "error: refusing to report timings from an "
                     "unoptimized or sanitizer build (%s)\n",
                     PERFBENCH_BUILD_TYPE);
        return 3;
    }
    if (o.workDir.empty())
        o.workDir = ".bench_work/" + o.workload + "-" +
                    std::to_string(::getpid());
    if (o.outDir.empty())
        o.outDir = ".bench_out";
    std::filesystem::create_directories(o.workDir);

    dfault::par::Pool::setGlobalThreads(o.threads);
    std::printf("host: nproc=%u pool_threads=%d build=%s compiler=gcc-%s\n",
                std::thread::hardware_concurrency(), o.threads,
                PERFBENCH_BUILD_TYPE, __VERSION__);
    std::printf("run: workload=%s seed=%" PRIu64 " seconds=%g trace=%d\n",
                o.workload.c_str(), o.seed, o.seconds, o.trace ? 1 : 0);
    std::fflush(stdout);

    Result r;
    run(o, r);
    r.add("peak_rss_mib", "MiB", peakRssMib(), Metric::Reduce::Last);
    std::filesystem::remove_all(o.workDir);

    // Correctness: every iteration reproduces the same outputs, and
    // they match the recorded reference where one exists.
    const std::uint64_t digest = r.digests.empty() ? 0 : r.digests.front();
    for (const std::uint64_t d : r.digests)
        r.check(d == digest, "output digest differs between iterations");
    const std::uint64_t want =
        reference.empty() ? 0 : referenceDigest(reference, o.workload, o.seed);
    if (want != 0)
        r.check(digest == want, "output digest does not match reference");

    if (o.trace) {
        std::filesystem::create_directories(o.outDir);
        const std::string path = o.outDir + "/spans-" + o.workload +
                                 "-seed" + std::to_string(o.seed) +
                                 ".json";
        if (!SpanLog::instance().write(path))
            r.check(false, "cannot write span file " + path);
        else
            std::printf("spans: %s\n", path.c_str());
        SpanLog::instance().printSummary(stdout);
    }

    std::printf("digest: %016" PRIx64 " (%s)\n", digest,
                want == 0 ? "no reference for this seed"
                : digest == want ? "matches reference"
                                 : "REFERENCE MISMATCH");
    std::printf("counts (must repeat exactly):\n");
    for (const auto &[name, v] : r.counts)
        std::printf("  %-34s %" PRIu64 "\n", name.c_str(), v);

    std::string metrics;
    std::printf("%s metrics:\n", o.trace ? "per-layer" : "end-to-end");
    bool first = true;
    const auto emit = [&](const MetricSpec &spec) {
        const auto it = r.metrics.find(spec.name);
        const bool present = it != r.metrics.end();
        double v = present ? it->second.value() : 0.0;
        if (!std::isfinite(v)) {
            r.check(false, std::string(spec.name) + " is not finite");
            v = 0.0;
        }
        const std::size_t n = present ? it->second.samples.size() : 0;
        std::string detail = present ? "" : "  (n/a on this workload)";
        if (present && !it->second.note.empty())
            detail += "  " + it->second.note;
        if (n > 1) {
            detail += "  samples";
            for (const double x : it->second.samples) {
                char sample[32];
                std::snprintf(sample, sizeof(sample), " %.4g", x);
                detail += sample;
            }
        }
        std::printf("  %-30s %14.6g %-9s n=%zu%s\n", spec.name, v,
                    spec.unit, n, detail.c_str());
        metrics += first ? "" : ", ";
        metrics += "\"" + std::string(spec.name) + "\": {\"value\": " +
                   formatValue(v) + ", \"unit\": \"" + spec.unit + "\"}";
        first = false;
    };
    if (o.trace)
        for (const auto &spec : kPerLayer)
            emit(spec);
    else
        for (const auto &spec : kEndToEnd)
            emit(spec);
    for (const auto &p : r.problems)
        std::printf("FAILED CHECK: %s\n", p.c_str());
    std::printf("attempted=%" PRIu64 " failed=%" PRIu64
                " failed_share=%.6g\n",
                r.attempted, r.failed,
                r.attempted ? static_cast<double>(r.failed) / r.attempted
                            : 0.0);
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {%s}}\n",
                r.problems.empty() ? "true" : "false",
                std::max<std::uint64_t>(r.attempted, 1), r.failed,
                metrics.c_str());
    return 0;
}
