/**
 * @file
 * The benchmark's three workloads. Each builds its platforms in a
 * timed set-up (repeated; the median is setup_s), then repeats one
 * iteration of its timed section until the run's seconds are spent.
 * Every iteration starts from a cleared ProfileCache or a warm one as
 * the workload defines, and from fresh checkpoint and journal
 * directories, so no iteration resumes another's work.
 */

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/rng.hh"
#include "core/dataset_builder.hh"
#include "core/trainer.hh"
#include "dram/retention.hh"
#include "ml/forest.hh"
#include "obs/stats.hh"
#include "par/pool.hh"
#include "perfbench.hh"
#include "serve/service.hh"
#include "stats/summary.hh"

namespace perfbench {

namespace {

using namespace dfault;
using R = Metric::Reduce;
using Campaign = core::CharacterizationCampaign;

constexpr std::uint64_t kMiB = 1ULL << 20;
/** Every workload profiles at this scale: one kernel iteration each. */
constexpr double kWorkScale = 0.25;

workloads::Workload::Params
workloadParams(const Options &o, std::uint64_t footprint)
{
    workloads::Workload::Params p;
    p.footprintBytes = footprint;
    p.workScale = kWorkScale;
    p.seed = deriveSeed(o.seed, "workload-inputs") % 1000000007ULL;
    return p;
}

sys::Platform::Params
platformParams(std::uint64_t footprint)
{
    sys::Platform::Params pp;
    pp.exec.timeDilation = sys::dilationForFootprint(footprint);
    return pp;
}

/**
 * Run @p iteration until @p seconds have passed (at least once). The
 * iteration count therefore follows the host's speed; every metric is
 * a median over iterations.
 */
template <typename F>
void
repeatFor(double seconds, F &&iteration)
{
    const double start = nowSeconds();
    do
        iteration();
    while (nowSeconds() - start < seconds);
}

/** Platforms for the pool slots other than the caller's (slot 0). */
std::vector<std::unique_ptr<sys::Platform>>
slotReplicas(const sys::Platform &platform)
{
    std::vector<std::unique_ptr<sys::Platform>> replicas(
        static_cast<std::size_t>(par::Pool::global().slots()));
    for (std::size_t s = 1; s < replicas.size(); ++s)
        replicas[s] = platform.clone();
    return replicas;
}

/**
 * Profile @p suite through ProfileCache::get, fanned out over the pool
 * the way CharacterizationCampaign::sweep does, with a span around
 * every call. Returns each call's seconds and the phase's wall time.
 */
struct ProfilePhase
{
    std::vector<double> callSeconds;
    double wall = 0.0;
};

ProfilePhase
profileSuite(sys::Platform &platform,
             std::vector<std::unique_ptr<sys::Platform>> &replicas,
             const std::vector<workloads::WorkloadConfig> &suite,
             const workloads::Workload::Params &wparams)
{
    ProfilePhase phase;
    phase.callSeconds.resize(suite.size());
    Span span("features.profile_phase");
    const int parent = span.id();
    par::Pool::global().parallelFor(suite.size(), [&](std::size_t i) {
        const int slot = par::Pool::currentSlot();
        sys::Platform &p =
            slot <= 0 ? platform : *replicas[static_cast<std::size_t>(slot)];
        Span call("features.ProfileCache.get", suite[i].label, parent);
        features::ProfileCache::instance().get(p, suite[i], wparams);
        phase.callSeconds[i] = call.stop();
    });
    phase.wall = span.stop();
    return phase;
}

/** Per-layer numbers of one profiling phase. */
void
addProfilePhase(Result &r, const ProfilePhase &phase, int threads)
{
    const auto &s = phase.callSeconds;
    const double busy = std::accumulate(s.begin(), s.end(), 0.0);
    r.add("features.profile.calls", "count", static_cast<double>(s.size()));
    r.add("features.profile.busy_s", "s", busy);
    r.add("features.profile.ms_p50", "ms", medianOf(s) * 1e3);
    r.add("features.profile.ms_max", "ms",
          *std::max_element(s.begin(), s.end()) * 1e3);
    r.add("par.busy_share", "ratio", busy / (threads * phase.wall));
}

/** Simulator counts of the profiles computed in @p d; checks the
 *  cache conservation law. */
void
countProfiles(Result &r, const CounterMap &d)
{
    const auto u = [&](const char *name) {
        return static_cast<std::uint64_t>(get(d, name));
    };
    std::uint64_t acts = 0;
    for (int m = 0; m < 4; ++m)
        acts += u(("platform.mem.mcu." + std::to_string(m) +
                   ".activations")
                      .c_str());
    const std::uint64_t l1_misses = u("platform.mem.l1.misses");
    const std::uint64_t l1_wb = u("platform.mem.l1.writebacks");
    const std::uint64_t l2_acc =
        u("platform.mem.l2.hits") + u("platform.mem.l2.misses");
    r.count("features.profiles_computed", u("profile.runs"));
    r.count("sys.instructions", u("platform.exec.instructions"));
    r.count("trace.events", memAccesses(d));
    r.count("mem.l1.accesses",
            u("platform.mem.l1.hits") + l1_misses);
    r.count("mem.l1.misses", l1_misses);
    r.count("mem.l2.accesses", l2_acc);
    r.count("mem.l2.misses", u("platform.mem.l2.misses"));
    r.count("dram.cmds", u("platform.mem.dram_cmds"));
    r.count("dram.activations", acts);
    r.check(l2_acc == l1_misses + l1_wb,
            "L2 accesses != L1 misses + L1 writebacks");
}

/** Median and tail of per-cell latency from the campaign histogram. */
void
addCellLatency(Result &r, const obs::HistogramSnapshot &before)
{
    const auto d = histogramDelta(histogramSnapshot("campaign.cell_ns"),
                                  before);
    r.add("core.cell_ms_p50", "ms", d.p50() / 1e6);
    r.add("core.cell_ms_p99", "ms", d.p99() / 1e6);
}

/** Account for a batch of cells; quarantined or cancelled ones fail. */
void
accountCells(Result &r, const std::vector<core::Measurement> &ms,
             Digest &digest)
{
    std::uint64_t failed = 0;
    for (const auto &m : ms) {
        failed += m.quarantined || m.cancelled;
        digestMeasurement(digest, m);
    }
    r.attempted += ms.size();
    r.failed += failed;
    if (failed > 0)
        r.problems.push_back(std::to_string(failed) +
                             " cell(s) quarantined or cancelled");
}

/** Digest each distinct profile the measurements point at. */
void
digestProfiles(Digest &digest, const std::vector<core::Measurement> &ms)
{
    std::vector<const features::WorkloadProfile *> seen;
    for (const auto &m : ms)
        if (m.profile &&
            std::find(seen.begin(), seen.end(), m.profile) == seen.end()) {
            seen.push_back(m.profile);
            digestProfile(digest, *m.profile);
        }
}

/** The traced run: untraced iterations, then the same with spans on. */
template <typename F>
void
untracedThenTraced(const Options &o, Result &r, F &&iteration)
{
    std::vector<double> untraced, traced;
    // Per-layer numbers come from the traced iterations only: the
    // untraced iterations' samples are dropped with their metrics. A
    // quarter of the seconds each leaves room for the replay pass.
    const auto before = r.metrics;
    repeatFor(o.seconds / 4, [&] { untraced.push_back(iteration()); });
    r.metrics = before;
    SpanLog::instance().setEnabled(true);
    repeatFor(o.seconds / 4, [&] { traced.push_back(iteration()); });
    r.add("obs.trace_overhead_share", "ratio",
          medianOf(traced) / medianOf(untraced), R::Last);
}

} // namespace

// ---- profile_cold ------------------------------------------------------

void
runProfileCold(const Options &o, Result &r)
{
    const std::uint64_t footprint = 16 * kMiB;
    const auto wparams = workloadParams(o, footprint);
    const auto suite = workloads::standardSuite();
    const dram::OperatingPoint op{2.283, dram::kMinVdd, 50.0};

    std::unique_ptr<sys::Platform> platform;
    std::unique_ptr<Campaign> campaign;
    std::vector<std::unique_ptr<sys::Platform>> replicas;
    for (int i = 0; i < 5; ++i) {
        campaign.reset();
        replicas.clear();
        platform.reset();
        Span setup("setup");
        platform = std::make_unique<sys::Platform>(platformParams(footprint));
        Campaign::Params cp;
        cp.workload = wparams;
        campaign = std::make_unique<Campaign>(*platform, cp);
        replicas = slotReplicas(*platform);
        r.add("setup_s", "s", setup.stop());
    }

    // Traced iterations profile through ProfileCache::get first (the
    // same fan-out sweep() uses), so each profile gets its own span;
    // sweep() then finds every profile cached.
    const auto iteration = [&] {
        const bool traced = SpanLog::instance().enabled();
        features::ProfileCache::instance().clear();
        const CounterMap before = readCounters();
        const auto cells_before = histogramSnapshot("campaign.cell_ns");
        Span it("iteration", "profile_cold");
        if (traced)
            addProfilePhase(r,
                            profileSuite(*platform, replicas, suite, wparams),
                            o.threads);
        Span sweep("core.CharacterizationCampaign.sweep");
        const auto ms = campaign->sweep(suite, {op});
        const double sweep_s = sweep.stop();
        const double wall = it.stop();

        const CounterMap d = delta(readCounters(), before);
        Digest digest;
        accountCells(r, ms, digest);
        digestProfiles(digest, ms);
        r.digests.push_back(digest.value());
        countProfiles(r, d);
        r.count("core.cells", ms.size());

        const double computed = get(d, "profile.runs");
        r.add("wall_s", "s", wall);
        r.add("cells_per_s", "1/s", static_cast<double>(ms.size()) / sweep_s);
        r.add("profile_minstr_per_s", "Minstr/s",
              get(d, "platform.exec.instructions") / 1e6 / wall);
        r.add("features.profiles_computed", "count", computed);
        r.add("features.cache_hit_ratio", "ratio",
              1.0 - computed / static_cast<double>(suite.size()));
        r.add("core.cells", "count", static_cast<double>(ms.size()));
        r.add("core.sweep_s", "s", sweep_s);
        r.add("par.tasks", "count", get(d, "par.tasks_executed"));
        addCellLatency(r, cells_before);
        return wall;
    };

    if (!o.trace) {
        repeatFor(o.seconds, iteration);
        return;
    }
    untracedThenTraced(o, r, iteration);
    std::vector<ProfileJob> jobs;
    for (const auto &config : suite)
        jobs.push_back({platform.get(), config});
    replayLayers(jobs, wparams, r);
}

// ---- campaign_eval -----------------------------------------------------

void
runCampaignEval(const Options &o, Result &r)
{
    const std::uint64_t footprint = 4 * kMiB;
    const auto wparams = workloadParams(o, footprint);
    const auto suite = workloads::standardSuite();
    const auto wer_points = core::werOperatingPoints();
    const auto pue_points = core::pueOperatingPoints();
    const int pue_repeats = 30;
    // Two of the eight DIMM/rank devices keep the RDF input-set-3 folds
    // (the dominant ML cost) to a few seconds per iteration.
    const int devices[] = {0, 5};
    const core::InputSet sets[] = {core::InputSet::Set1,
                                   core::InputSet::Set3};
    const std::string checkpoint_dir = o.workDir + "/checkpoint";

    std::unique_ptr<sys::Platform> platform;
    std::unique_ptr<Campaign> campaign;
    std::vector<std::unique_ptr<sys::Platform>> replicas;
    for (int i = 0; i < 3; ++i) {
        campaign.reset();
        replicas.clear();
        platform.reset();
        features::ProfileCache::instance().clear();
        const CounterMap before = readCounters();
        Span setup("setup");
        platform = std::make_unique<sys::Platform>(platformParams(footprint));
        Campaign::Params cp;
        cp.workload = wparams;
        cp.checkpointDir = checkpoint_dir;
        campaign = std::make_unique<Campaign>(*platform, cp);
        replicas = slotReplicas(*platform);
        const ProfilePhase phase =
            profileSuite(*platform, replicas, suite, wparams);
        r.add("setup_s", "s", setup.stop());
        const CounterMap d = delta(readCounters(), before);
        countProfiles(r, d);
        addProfilePhase(r, phase, o.threads);
        const double busy = std::accumulate(
            phase.callSeconds.begin(), phase.callSeconds.end(), 0.0);
        r.add("profile_minstr_per_s", "Minstr/s",
              get(d, "platform.exec.instructions") / 1e6 / busy);
    }

    const auto iteration = [&] {
        freshDir(checkpoint_dir);
        const CounterMap before = readCounters();
        const auto cells_before = histogramSnapshot("campaign.cell_ns");
        Digest digest;
        Span it("iteration", "campaign_eval");

        Span sweep("core.CharacterizationCampaign.sweep");
        const auto ms = campaign->sweep(suite, wer_points);
        const double sweep_s = sweep.stop();

        Span pue("core.CharacterizationCampaign.measurePue");
        for (const auto &config : suite)
            for (const auto &op : pue_points)
                digest.add(campaign->measurePue(config, op, pue_repeats));
        const double pue_s = pue.stop();

        Span build("core.makeWerDataset");
        std::vector<ml::Dataset> datasets;
        for (const int dev : devices)
            for (const auto set : sets)
                datasets.push_back(core::makeWerDataset(ms, dev, set));
        const double dataset_s = build.stop();

        double lobo_s = 0.0;
        const char *const lobo_metric[] = {"ml.lobo.svm_s", "ml.lobo.knn_s",
                                           "ml.lobo.rdf_s"};
        for (const auto kind : core::kAllModelKinds) {
            Span eval("core.evaluateModel", core::modelKindName(kind));
            for (const auto &data : datasets) {
                const auto res = core::evaluateModel(data, kind, true);
                digest.add(res.mpe);
                for (const auto &[group, mpe] : res.mpePerGroup) {
                    digest.add(group);
                    digest.add(mpe);
                }
            }
            const double s = eval.stop();
            lobo_s += s;
            r.add(lobo_metric[static_cast<int>(kind)], "s", s);
        }
        const double wall = it.stop();

        const CounterMap d = delta(readCounters(), before);
        accountCells(r, ms, digest);
        digestProfiles(digest, ms);
        r.digests.push_back(digest.value());

        const std::size_t pue_cells =
            suite.size() * pue_points.size() * pue_repeats;
        const double cells = static_cast<double>(ms.size() + pue_cells);
        const double folds = get(d, "ml.folds");
        const double computed = get(d, "profile.runs");
        const DirUsage ckpt = dirUsage(checkpoint_dir);
        r.attempted += pue_cells + static_cast<std::uint64_t>(folds);
        r.count("core.cells", static_cast<std::uint64_t>(cells));
        r.count("ml.lobo.folds", static_cast<std::uint64_t>(folds));
        r.count("features.profiles_computed_timed",
                static_cast<std::uint64_t>(computed));
        r.count("core.checkpoint.files", ckpt.files);

        r.add("wall_s", "s", wall);
        r.add("cells_per_s", "1/s", cells / (sweep_s + pue_s));
        r.add("core.cells", "count", cells);
        r.add("core.sweep_s", "s", sweep_s);
        r.add("core.pue_s", "s", pue_s);
        r.add("core.dataset_s", "s", dataset_s);
        r.add("core.checkpoint.bytes", "B", static_cast<double>(ckpt.bytes));
        r.add("core.checkpoint.files", "count",
              static_cast<double>(ckpt.files));
        r.add("ml.lobo.folds", "count", folds);
        r.add("ml.lobo.folds_per_s", "1/s", folds / lobo_s);
        r.add("features.profiles_computed", "count", computed);
        // Profile lookups implied: one per config per sweep, one per
        // measurePue call; every one should hit the warm cache.
        r.add("features.cache_hit_ratio", "ratio",
              1.0 - computed / static_cast<double>(
                                   suite.size() * (1 + pue_points.size())));
        r.add("par.tasks", "count", get(d, "par.tasks_executed"));
        addCellLatency(r, cells_before);
        return wall;
    };

    if (!o.trace) {
        repeatFor(o.seconds, iteration);
        return;
    }
    untracedThenTraced(o, r, iteration);
    // The profiling this workload pays for happens in set-up.
    std::vector<ProfileJob> jobs;
    for (const auto &config : suite)
        jobs.push_back({platform.get(), config});
    replayLayers(jobs, wparams, r);
}

// ---- fleet_serve -------------------------------------------------------

void
runFleetServe(const Options &o, Result &r)
{
    const std::uint64_t footprint = 4 * kMiB;
    const auto wparams = workloadParams(o, footprint);
    const int servers = 6;
    const std::size_t rounds = 400;
    // Requests per round, above the per-tick budget of 32 and fixed so
    // that every seed serves the same load whatever its device count.
    const std::size_t round_size = 48;
    const workloads::WorkloadConfig srad{"srad", 8, "srad(par)"};
    const dram::OperatingPoint relaxed{2.283, dram::kMinVdd, 60.0};
    const dram::OperatingPoint nominal{};
    const dram::RetentionModel retention;
    const std::uint64_t master_base =
        0xf1ee7 + 16 * (deriveSeed(o.seed, "fleet-master-seeds") % 4096);
    const std::string journal_dir = o.workDir + "/journal";

    std::vector<std::unique_ptr<sys::Platform>> platforms;
    std::vector<std::unique_ptr<Campaign>> campaigns;
    for (int i = 0; i < 3; ++i) {
        campaigns.clear();
        platforms.clear();
        Span setup("setup");
        for (int s = 0; s < servers; ++s) {
            auto pp = platformParams(footprint);
            pp.devices.masterSeed = master_base + static_cast<unsigned>(s);
            platforms.push_back(std::make_unique<sys::Platform>(pp));
            Campaign::Params cp;
            cp.workload = wparams;
            cp.useThermalLoop = false;
            campaigns.push_back(
                std::make_unique<Campaign>(*platforms.back(), cp));
        }
        r.add("setup_s", "s", setup.stop());
    }

    const auto iteration = [&] {
        features::ProfileCache::instance().clear();
        const CounterMap before = readCounters();
        const auto cells_before = histogramSnapshot("campaign.cell_ns");
        Digest digest;
        Span it("iteration", "fleet_serve");

        // Phase one: characterize every server at the relaxed point.
        std::vector<double> relaxed_wer, target;
        ml::Matrix features;
        std::vector<core::Measurement> ms;
        ProfilePhase profiles;
        Span characterize("fleet.characterize");
        for (int s = 0; s < servers; ++s) {
            sys::Platform &platform = *platforms[static_cast<std::size_t>(s)];
            Span get_span("features.ProfileCache.get", srad.label);
            features::ProfileCache::instance().get(platform, srad, wparams);
            profiles.callSeconds.push_back(get_span.stop());
            Span measure("core.CharacterizationCampaign.measure");
            ms.push_back(campaigns[static_cast<std::size_t>(s)]->measure(
                srad, relaxed));
            measure.stop();
            const auto &m = ms.back();
            for (int d = 0; d < platform.geometry().deviceCount(); ++d) {
                const double wer = m.run.werForDevice(d);
                if (wer <= 0.0)
                    continue;
                const double scale = platform.devices()[d].retentionScale();
                relaxed_wer.push_back(wer);
                target.push_back(std::log10(retention.weakProbability(
                    dram::kNominalTrefp, nominal, scale)));
                features.push_back({std::log10(wer), scale,
                                    static_cast<double>(s),
                                    static_cast<double>(d)});
            }
        }
        const double characterize_s = characterize.stop();
        profiles.wall = characterize_s;
        const std::size_t n = features.size();
        r.check(n >= 4, "fewer than 4 devices with a measurable WER");
        if (n < 4)
            return it.stop();

        ml::RandomForestRegressor::Params fp;
        fp.trees = 25;
        fp.maxDepth = 8;
        ml::RandomForestRegressor forest(fp);
        Span fit("ml.RandomForestRegressor.fit");
        forest.fit(features, target);
        const double fit_s = fit.stop();
        const ml::ForestSliceRegressor slice(forest, 1);

        // Phase two: one closed-loop client submits a round above the
        // per-tick budget, ticks, and waits for the tick to finish.
        freshDir(journal_dir);
        obs::Registry serve_stats;
        serve::Params sp;
        sp.budgetPerTick = 32;
        sp.queueCapacity = 4 * round_size;
        sp.degradeAfterTicks = 3;
        sp.shards = 2;
        sp.maxRetries = 1;
        sp.journalDir = journal_dir;
        sp.snapshotEveryTicks = 32;
        sp.journalSalt = deriveSeed(o.seed, "journal-salt");
        sp.registry = &serve_stats;

        std::vector<double> sorted = relaxed_wer;
        std::nth_element(sorted.begin(), sorted.begin() + n * 3 / 4,
                         sorted.end());
        const double wer_q75 = sorted[n * 3 / 4];
        std::vector<std::size_t> order(n);
        std::iota(order.begin(), order.end(), 0);
        Rng mix(deriveSeed(o.seed, "request-mix"));

        std::vector<double> submit_us, tick_ms;
        Span serving("serve.phase");
        std::vector<serve::Response> transcript;
        {
            serve::PredictionService service(forest, sp, &slice);
            for (std::size_t round = 0; round < rounds; ++round) {
                std::shuffle(order.begin(), order.end(), mix);
                for (std::size_t j = 0; j < round_size; ++j) {
                    const std::size_t i = order[j % n];
                    serve::Request req;
                    req.key = i;
                    req.priority = relaxed_wer[i] >= wer_q75
                                       ? serve::Priority::Critical
                                   : i % 5 == 0 ? serve::Priority::Health
                                                : serve::Priority::Bulk;
                    req.shard = static_cast<int>(i) % sp.shards;
                    req.features = features[i];
                    const double t0 = nowSeconds();
                    service.submit(std::move(req));
                    submit_us.push_back((nowSeconds() - t0) * 1e6);
                }
                Span tick("serve.PredictionService.tick");
                service.tick();
                tick_ms.push_back(tick.stop() * 1e3);
            }
            service.drain();
            transcript = service.takeResponses();
        }
        const double serve_s = serving.stop();
        const double wall = it.stop();

        const CounterMap d = delta(readCounters(), before);
        accountCells(r, ms, digest);
        digestProfiles(digest, ms);
        for (const auto &resp : transcript) {
            digest.add(resp.id);
            digest.add(resp.key);
            digest.add(static_cast<std::uint64_t>(resp.disposition));
            digest.add(resp.prediction);
            digest.add(resp.reason);
        }
        r.digests.push_back(digest.value());

        const auto counter = [&](const char *name) {
            return static_cast<std::uint64_t>(serve_stats.value(name));
        };
        const std::uint64_t submitted = counter("serve.submitted");
        const std::uint64_t served = counter("serve.served");
        const std::uint64_t degraded = counter("serve.degraded");
        const std::uint64_t shed = counter("serve.shed");
        r.check(submitted == served + degraded + shed,
                "serve.submitted != served + degraded + shed");
        r.check(transcript.size() == submitted,
                "transcript length != serve.submitted");
        r.attempted += submitted;
        r.failed += shed;
        countProfiles(r, d);
        r.count("core.cells", ms.size());
        r.count("serve.submitted", submitted);
        r.count("serve.served", served);
        r.count("serve.degraded", degraded);
        r.count("serve.shed", shed);
        r.count("serve.ticks", counter("serve.ticks"));

        const double instr = get(d, "platform.exec.instructions");
        const double computed = get(d, "profile.runs");
        const double profile_busy =
            std::accumulate(profiles.callSeconds.begin(),
                            profiles.callSeconds.end(), 0.0);
        r.add("wall_s", "s", wall);
        r.add("cells_per_s", "1/s",
              static_cast<double>(ms.size()) / characterize_s);
        r.add("profile_minstr_per_s", "Minstr/s", instr / 1e6 / profile_busy);
        addProfilePhase(r, profiles, o.threads);
        r.add("features.profiles_computed", "count", computed);
        r.add("features.cache_hit_ratio", "ratio",
              1.0 - computed / static_cast<double>(servers));
        r.add("core.cells", "count", static_cast<double>(ms.size()));
        r.add("par.tasks", "count", get(d, "par.tasks_executed"));
        addCellLatency(r, cells_before);
        r.add("ml.forest_fit_s", "s", fit_s);

        const DirUsage journal = dirUsage(journal_dir);
        r.add("serve.req_per_s", "1/s",
              static_cast<double>(submitted) / serve_s);
        r.add("serve.tick_p50_ms", "ms", medianOf(tick_ms));
        // The tail is the highest percentile with ten ticks beyond it.
        const double tail_q =
            std::max(0.5, 1.0 - 10.0 / static_cast<double>(tick_ms.size()));
        r.add("serve.tick_tail_ms", "ms",
              stats::quantile(tick_ms, tail_q));
        char note[64];
        std::snprintf(note, sizeof(note), "p%.4g of %zu ticks",
                      tail_q * 100.0, tick_ms.size());
        r.metrics["serve.tick_tail_ms"].note = note;
        r.add("serve.submit_us_p99", "us", stats::quantile(submit_us, 0.99));
        r.add("serve.ticks", "count",
              static_cast<double>(counter("serve.ticks")));
        r.add("serve.served", "count", static_cast<double>(served));
        r.add("serve.degraded", "count", static_cast<double>(degraded));
        r.add("serve.shed", "count", static_cast<double>(shed));
        r.add("serve.journal.bytes", "B", static_cast<double>(journal.bytes));
        r.add("serve.journal.files", "count",
              static_cast<double>(journal.files));
        r.add("serve.snapshot_bytes_max", "B",
              static_cast<double>(journal.largestSnapshot));
        return wall;
    };

    if (!o.trace) {
        repeatFor(o.seconds, iteration);
        return;
    }
    untracedThenTraced(o, r, iteration);
    std::vector<ProfileJob> jobs;
    for (auto &p : platforms)
        jobs.push_back({p.get(), srad});
    replayLayers(jobs, wparams, r);
}

} // namespace perfbench
