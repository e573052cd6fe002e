/**
 * @file
 * google-benchmark micro-benchmarks of the library's hot paths: the
 * SECDED codec (encode plus the no-error / single-bit-correct /
 * double-bit-detect decode paths), the cache and MCU models, feature
 * correlation (full Spearman and the ranking kernel alone), the three
 * ML models' prediction latency (the paper's "predict DRAM errors
 * within 300 ms" claim), one full error-integration run, and the
 * serving journal's encoding (one JSON number, one snapshot record).
 *
 * Each kernel benchmark carries extra custom counters alongside
 * google-benchmark's mean time:
 *
 *   p50_ns / p99_ns   per-operation latency quantiles, tail-sampled
 *                     into an obs::Histogram. Sub-100ns kernels are
 *                     sampled in batches (the quantile is then of the
 *                     per-batch mean) so the clock reads don't distort
 *                     the measured loop.
 *   ipc, cache_miss_per_kinstr, branch_miss_per_kinstr
 *                     hardware-counter rates over the benchmark loop
 *                     via perf_event_open; omitted entirely on hosts
 *                     where the syscall is unavailable (VMs,
 *                     perf_event_paranoid), so downstream gates can
 *                     tell "no counters" from "zero misses".
 *
 * tools/bench_compare gates on cpu_time and p99_ns and (advisorily)
 * on the counter rates; refresh bench/BENCH_perf.json after any
 * intentional change here.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>

#include "common/rng.hh"
#include "core/error_integrator.hh"
#include "dram/controller.hh"
#include "dram/ecc.hh"
#include "features/extractor.hh"
#include "mem/cache.hh"
#include "ml/forest.hh"
#include "ml/knn.hh"
#include "ml/selection.hh"
#include "ml/svr.hh"
#include "obs/histogram.hh"
#include "obs/json.hh"
#include "obs/perf_counters.hh"
#include "serve/journal.hh"
#include "stats/correlation.hh"
#include "sys/platform.hh"

namespace {

using namespace dfault;

/**
 * Per-benchmark latency quantiles + hardware-counter rates. Bracket
 * every iteration with begin()/end(); construction-to-destruction
 * spans the benchmark loop for the counter delta.
 */
class KernelProfile
{
  public:
    /**
     * @p batch iterations are timed as one histogram sample (their
     * mean); use > 1 for kernels cheaper than ~2 clock reads.
     */
    explicit KernelProfile(benchmark::State &state, int batch = 1)
        : state_(state), batch_(static_cast<std::uint64_t>(batch)),
          perfStart_(obs::PerfCounters::threadInstance().sample())
    {
    }

    void begin()
    {
        if (n_ % batch_ == 0)
            t0_ = std::chrono::steady_clock::now();
    }

    void end()
    {
        ++n_;
        if (n_ % batch_ == 0) {
            const double ns =
                std::chrono::duration<double, std::nano>(
                    std::chrono::steady_clock::now() - t0_)
                    .count();
            hist_.record(ns / static_cast<double>(batch_));
        }
    }

    ~KernelProfile()
    {
        const obs::PerfSample delta = obs::PerfCounters::threadInstance()
                                          .sample()
                                          .deltaSince(perfStart_);
        if (delta.valid && delta.cycles > 0) {
            const double instr =
                static_cast<double>(delta.instructions);
            state_.counters["ipc"] = benchmark::Counter(
                instr / static_cast<double>(delta.cycles));
            if (instr > 0) {
                state_.counters["cache_miss_per_kinstr"] =
                    benchmark::Counter(
                        static_cast<double>(delta.cacheMisses) / instr *
                        1e3);
                state_.counters["branch_miss_per_kinstr"] =
                    benchmark::Counter(
                        static_cast<double>(delta.branchMisses) / instr *
                        1e3);
            }
        }
        const obs::HistogramSnapshot snap = hist_.snapshot();
        if (snap.count > 0) {
            state_.counters["p50_ns"] = benchmark::Counter(snap.p50());
            state_.counters["p99_ns"] = benchmark::Counter(snap.p99());
        }
    }

  private:
    benchmark::State &state_;
    obs::Histogram hist_;
    std::uint64_t batch_;
    std::uint64_t n_ = 0;
    std::chrono::steady_clock::time_point t0_;
    obs::PerfSample perfStart_;
};

/** Batch size for kernels in the few-ns range. */
constexpr int kTightBatch = 256;

void
BM_EccEncode(benchmark::State &state)
{
    dram::EccSecded ecc;
    Rng rng(1);
    std::uint64_t data = rng.next();
    KernelProfile prof(state, kTightBatch);
    for (auto _ : state) {
        prof.begin();
        benchmark::DoNotOptimize(ecc.encode(data));
        data += 0x9e3779b97f4a7c15ULL;
        prof.end();
    }
}
BENCHMARK(BM_EccEncode);

/**
 * Decode latency across the three SECDED paths the integrator
 * exercises: arg = number of flipped bits (0 = clean syndrome, 1 =
 * single-bit correct, 2 = double-bit detect).
 */
void
BM_EccDecode(benchmark::State &state)
{
    dram::EccSecded ecc;
    Rng rng(2);
    dram::Codeword word = ecc.encode(rng.next());
    if (state.range(0) >= 1)
        dram::EccSecded::flipBit(word, 17);
    if (state.range(0) >= 2)
        dram::EccSecded::flipBit(word, 41);
    KernelProfile prof(state, kTightBatch);
    for (auto _ : state) {
        prof.begin();
        benchmark::DoNotOptimize(ecc.decode(word));
        prof.end();
    }
}
BENCHMARK(BM_EccDecode)->Arg(0)->Arg(1)->Arg(2);

void
BM_CacheAccess(benchmark::State &state)
{
    mem::Cache::Params params;
    params.sizeBytes = 32 * 1024;
    mem::Cache cache(params);
    Rng rng(3);
    KernelProfile prof(state, kTightBatch);
    for (auto _ : state) {
        prof.begin();
        benchmark::DoNotOptimize(
            cache.access(rng.uniformInt(std::uint64_t{1} << 20) * 8,
                         false));
        prof.end();
    }
}
BENCHMARK(BM_CacheAccess);

void
BM_McuAccess(benchmark::State &state)
{
    dram::Geometry geometry;
    dram::Mcu mcu(geometry, 0);
    Rng rng(4);
    Cycles cycle = 0;
    KernelProfile prof(state, kTightBatch);
    for (auto _ : state) {
        prof.begin();
        dram::WordCoord coord = geometry.decode(
            rng.uniformInt(geometry.capacityBytes() / 8) * 8);
        coord.channel = 0;
        benchmark::DoNotOptimize(mcu.access(coord, false, cycle));
        cycle += 50;
        prof.end();
    }
}
BENCHMARK(BM_McuAccess);

void
BM_Spearman249(benchmark::State &state)
{
    Rng rng(5);
    std::vector<double> x, y;
    for (int i = 0; i < 140; ++i) { // one campaign's worth of samples
        x.push_back(rng.uniform());
        y.push_back(rng.uniform());
    }
    KernelProfile prof(state);
    for (auto _ : state) {
        prof.begin();
        for (int f = 0; f < 249; ++f)
            benchmark::DoNotOptimize(stats::spearman(x, y));
        prof.end();
    }
}
BENCHMARK(BM_Spearman249);

/**
 * The ranking kernel alone (the argsort inside every Spearman call),
 * swept across sample sizes so the O(n log n) scaling is visible in
 * the per-size times; the allocation-free ranksInto is the form the
 * selection path uses.
 */
void
BM_SpearmanRanks(benchmark::State &state)
{
    Rng rng(8);
    std::vector<double> x;
    for (std::int64_t i = 0; i < state.range(0); ++i)
        x.push_back(rng.uniform());
    std::vector<std::size_t> order;
    std::vector<double> out;
    KernelProfile prof(state);
    for (auto _ : state) {
        prof.begin();
        stats::ranksInto(x, order, out);
        benchmark::DoNotOptimize(out.data());
        prof.end();
    }
    state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SpearmanRanks)
    ->Arg(140)
    ->Arg(1120)
    ->Arg(8960)
    ->Complexity(benchmark::oNLogN);

/**
 * Full feature-selection pass over a campaign-shaped dataset: the
 * target is ranked once and every column is gathered and ranked once
 * (no per-pair copies), which is what replaced 249 independent
 * spearman() calls.
 */
void
BM_CorrelateFeatures(benchmark::State &state)
{
    Rng rng(9);
    std::vector<std::string> names;
    for (int j = 0; j < 249; ++j)
        names.push_back("f" + std::to_string(j));
    ml::Dataset data(names);
    for (int i = 0; i < 140; ++i) {
        std::vector<double> row;
        for (int j = 0; j < 249; ++j)
            row.push_back(rng.uniform());
        data.addSample(std::move(row), rng.uniform(), "g");
    }
    KernelProfile prof(state);
    for (auto _ : state) {
        prof.begin();
        benchmark::DoNotOptimize(ml::correlateFeatures(data));
        prof.end();
    }
}
BENCHMARK(BM_CorrelateFeatures);

/** Training data shaped like one device's WER dataset. */
ml::Matrix
campaignX(std::size_t rows, std::size_t cols)
{
    Rng rng(6);
    ml::Matrix x;
    for (std::size_t i = 0; i < rows; ++i) {
        std::vector<double> row;
        for (std::size_t j = 0; j < cols; ++j)
            row.push_back(rng.uniform());
        x.push_back(std::move(row));
    }
    return x;
}

std::vector<double>
campaignY(std::size_t rows)
{
    Rng rng(7);
    std::vector<double> y;
    for (std::size_t i = 0; i < rows; ++i)
        y.push_back(rng.uniform());
    return y;
}

template <typename Model>
void
predictLatency(benchmark::State &state, std::size_t features)
{
    const auto x = campaignX(140, features);
    const auto y = campaignY(140);
    Model model;
    model.fit(x, y);
    const auto query = campaignX(1, features)[0];
    KernelProfile prof(state);
    for (auto _ : state) {
        prof.begin();
        benchmark::DoNotOptimize(model.predict(query));
        prof.end();
    }
}

void
BM_KnnPredict_Set1(benchmark::State &state)
{
    predictLatency<ml::KnnRegressor>(state, 7);
}
BENCHMARK(BM_KnnPredict_Set1);

void
BM_KnnPredict_AllFeatures(benchmark::State &state)
{
    predictLatency<ml::KnnRegressor>(state, 252);
}
BENCHMARK(BM_KnnPredict_AllFeatures);

void
BM_SvrPredict_Set1(benchmark::State &state)
{
    predictLatency<ml::SvrRegressor>(state, 7);
}
BENCHMARK(BM_SvrPredict_Set1);

void
BM_RdfPredict_Set1(benchmark::State &state)
{
    predictLatency<ml::RandomForestRegressor>(state, 7);
}
BENCHMARK(BM_RdfPredict_Set1);

/** Forest traversal with deep feature vectors (all 252 features). */
void
BM_RdfPredict_AllFeatures(benchmark::State &state)
{
    predictLatency<ml::RandomForestRegressor>(state, 252);
}
BENCHMARK(BM_RdfPredict_AllFeatures);

/**
 * Batched forest scoring of one campaign's worth of rows — the shape
 * grid-search folds and permutation importance evaluate. One pass per
 * tree over the whole batch keeps its packed nodes cache-hot, unlike
 * 140 independent predict() calls.
 */
void
BM_RdfPredictMany_AllFeatures(benchmark::State &state)
{
    const auto x = campaignX(140, 252);
    const auto y = campaignY(140);
    ml::RandomForestRegressor model;
    model.fit(x, y);
    const auto queries = campaignX(140, 252);
    std::vector<double> out;
    KernelProfile prof(state);
    for (auto _ : state) {
        prof.begin();
        model.predictMany(queries, out);
        benchmark::DoNotOptimize(out.data());
        prof.end();
    }
}
BENCHMARK(BM_RdfPredictMany_AllFeatures);

void
BM_KnnFit_Set1(benchmark::State &state)
{
    const auto x = campaignX(140, 7);
    const auto y = campaignY(140);
    KernelProfile prof(state);
    for (auto _ : state) {
        prof.begin();
        ml::KnnRegressor model;
        model.fit(x, y);
        benchmark::DoNotOptimize(&model);
        prof.end();
    }
}
BENCHMARK(BM_KnnFit_Set1);

void
BM_ErrorIntegratorRun(benchmark::State &state)
{
    static sys::Platform platform([] {
        sys::Platform::Params p;
        p.hierarchy.l2.sizeBytes = 1 << 20;
        p.exec.timeDilation = sys::dilationForFootprint(2 << 20);
        return p;
    }());
    workloads::Workload::Params wp;
    wp.footprintBytes = 2 << 20;
    wp.workScale = 0.5;
    const auto &profile = features::ProfileCache::instance().get(
        platform, {"srad", 8, "srad(par)"}, wp);
    core::ErrorIntegrator integrator;
    const dram::OperatingPoint op{2.283, dram::kMinVdd, 60.0};
    std::uint64_t seed = 0;
    KernelProfile prof(state);
    for (auto _ : state) {
        prof.begin();
        benchmark::DoNotOptimize(
            integrator.run(profile, op, platform.geometry(),
                           platform.devices(), seed++));
        prof.end();
    }
}
BENCHMARK(BM_ErrorIntegratorRun)->Unit(benchmark::kMillisecond);

/**
 * obs::jsonNumber over the values records carry: full-precision
 * model outputs and features, short decimals and small integers.
 */
void
BM_JsonNumber(benchmark::State &state)
{
    Rng rng(7);
    std::vector<double> values(1024);
    for (std::size_t i = 0; i < values.size(); ++i)
        values[i] = i % 4 == 0   ? rng.lognormal(-9.0, 2.0)
                    : i % 4 == 1 ? rng.uniform(-1.0, 1.0)
                    : i % 4 == 2 ? static_cast<double>(rng.uniformInt(
                                       std::uint64_t{1000})) * 0.25
                                 : static_cast<double>(i);
    std::size_t i = 0;
    KernelProfile prof(state, 16);
    for (auto _ : state) {
        prof.begin();
        benchmark::DoNotOptimize(obs::jsonNumber(values[i]));
        i = (i + 1) % values.size();
        prof.end();
    }
}
BENCHMARK(BM_JsonNumber);

/**
 * One serving-journal snapshot record over a 16k-response transcript,
 * as the service writes it: the transcript spliced in from its
 * once-per-response encoding, the rest (64 queued requests, breakers,
 * a 512-key last-known-good cache, counters) encoded afresh.
 */
void
BM_JournalSnapshot(benchmark::State &state)
{
    Rng rng(8);
    std::vector<serve::Response> transcript(16384);
    for (std::size_t i = 0; i < transcript.size(); ++i) {
        serve::Response &r = transcript[i];
        r.id = i;
        r.key = rng.uniformInt(std::uint64_t{512});
        r.priority = static_cast<serve::Priority>(i % 3);
        r.shard = static_cast<int>(i % 4);
        if (i % 16 == 0) {
            r.prediction = std::nan("");
            r.reason = "queue full";
        } else {
            r.disposition = serve::Disposition::Served;
            r.prediction = rng.lognormal(-9.0, 2.0);
        }
    }
    serve::EncodedResponses encoded;
    encoded.extend(transcript);

    serve::JournalSnapshot snap;
    snap.tick = 512;
    snap.nextId = transcript.size() + 64;
    for (std::uint64_t id = transcript.size(); id < snap.nextId; ++id) {
        serve::JournalRequest q;
        q.id = id;
        q.key = rng.uniformInt(std::uint64_t{512});
        q.features = {rng.uniform(), rng.uniform(), rng.uniform()};
        snap.queued.push_back(q);
    }
    snap.breakers.resize(4);
    for (std::uint64_t key = 0; key < 512; ++key)
        snap.lastKnownGood.emplace_back(key, rng.lognormal(-9.0, 2.0));
    serve::CounterBlock totals;
    totals.submitted = snap.nextId;
    totals.served = transcript.size();
    totals.ticks = snap.tick;
    snap.statOps = serve::counterBlockOps(totals);

    KernelProfile prof(state);
    for (auto _ : state) {
        prof.begin();
        benchmark::DoNotOptimize(
            serve::journalSnapshotJson(snap, 1, encoded.array(0)));
        prof.end();
    }
}
BENCHMARK(BM_JournalSnapshot)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
