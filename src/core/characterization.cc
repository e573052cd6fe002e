#include "core/characterization.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "common/logging.hh"
#include "common/rng.hh"
#include "core/checkpoint.hh"
#include "dram/power.hh"
#include "fi/injector.hh"
#include "obs/deferral.hh"
#include "obs/events.hh"
#include "obs/span.hh"
#include "obs/stats.hh"
#include "obs/timer.hh"
#include "par/pool.hh"

namespace dfault::core {

CharacterizationCampaign::CharacterizationCampaign(sys::Platform &platform)
    : CharacterizationCampaign(platform, Params{})
{
}

CharacterizationCampaign::CharacterizationCampaign(sys::Platform &platform,
                                                   const Params &params)
    : platform_(platform), params_(params), integrator_(params.integrator)
{
}

Measurement
CharacterizationCampaign::measure(const workloads::WorkloadConfig &config,
                                  const dram::OperatingPoint &op,
                                  std::uint64_t run_seed,
                                  dram::ErrorLog *log)
{
    return measureOn(platform_, config, op, run_seed, log);
}

Measurement
CharacterizationCampaign::measureOn(sys::Platform &platform,
                                    const workloads::WorkloadConfig &config,
                                    const dram::OperatingPoint &op,
                                    std::uint64_t run_seed,
                                    dram::ErrorLog *log, int attempt)
{
    op.validate();

    const auto cell_start = std::chrono::steady_clock::now();

    // Cooperative cancellation: bail before committing to the cell.
    // A CancelledError here reaches the pool's Cancelled disposition,
    // never the retry/quarantine path.
    const par::CancelToken &token = params_.cancelToken.valid()
                                        ? params_.cancelToken
                                        : par::rootCancelToken();
    token.throwIfCancelled();

    // The cell key is derived from labels, not indices, so the fault
    // schedule is identical whether the cell runs through measure()
    // or a sweep; the attempt re-rolls it so max_attempt-bounded
    // faults recover under retry.
    auto &inj = fi::Injector::instance();
    const std::uint64_t cell_key =
        hashCombine(fnv1a64(config.label), fnv1a64(op.label()));

    // Heartbeat contract: annotate + beat before the first fault
    // point, so a stall injected here is already under watchdog
    // observation, and beat again right after — a flagged stall then
    // raises TaskTimeoutError into the retry/quarantine machinery.
    par::heartbeatAnnotate(config.label + " @ " + op.label());
    par::heartbeat();
    if (inj.armed())
        // Models a stuck device before the thermal settle (named
        // campaign.hang before it gained real stall semantics).
        inj.maybeStall("task.stall", cell_key, attempt);
    par::heartbeat();

    const features::WorkloadProfile &profile =
        features::ProfileCache::instance().get(platform, config,
                                               params_.workload);

    Measurement m;
    m.label = config.label;
    m.threads = config.threads;
    m.requested = op;
    m.achieved = op;
    m.profile = &profile;

    if (params_.useThermalLoop) {
        const obs::ScopedTimer settle_timer("thermal_settle");
        auto &thermal = platform.thermal();
        // Start from a reset testbed: the settle must not depend on
        // which experiment (if any) heated the DIMMs before this one.
        thermal.reset();
        // DRAM self-heating: each DIMM dissipates according to its
        // share of the workload's command activity; the PID loop has
        // to regulate around it, exactly as on the physical testbed.
        const dram::PowerModel power;
        const auto &geometry = platform.geometry();
        for (int dimm = 0; dimm < geometry.params().channels; ++dimm) {
            double act_rate = 0.0, cmd_rate = 0.0;
            for (int rank = 0; rank < geometry.params().ranksPerDimm;
                 ++rank) {
                const int dev = geometry.deviceIndex(
                    dram::DeviceId{dimm, rank});
                for (const auto &row : profile.deviceRows[dev]) {
                    act_rate += row.activationRate;
                    cmd_rate += row.accessRate;
                }
            }
            const double watts =
                power.rankPower(op, act_rate, cmd_rate).total() -
                power.rankPower(op, 0.0, 0.0).background;
            thermal.setDramPower(dimm, std::max(0.0, watts));
        }
        thermal.setTargetAll(op.temperature);
        if (!thermal.stepUntilSettled())
            DFAULT_FATAL("thermal testbed failed to settle at ",
                         op.temperature, " C");
        double achieved = 0.0;
        for (int d = 0; d < thermal.dimms(); ++d)
            achieved += thermal.temperature(d);
        m.achieved.temperature = achieved / thermal.dimms();
    }
    token.throwIfCancelled();
    par::heartbeat();

    double integrate_seconds = 0.0;
    {
        const obs::ScopedTimer integrate_timer("integrate");
        // Name the measurement in the trace: the "integrate" span of
        // this cell shows which (workload, operating point) it ran.
        if (obs::SpanTracer::instance().enabled())
            obs::SpanTracer::instance().annotateCurrent(
                config.label + " @ " + op.label());
        m.run = integrator_.run(profile, m.achieved,
                                platform.geometry(),
                                platform.devices(), run_seed, log);
        integrate_seconds = integrate_timer.elapsed();
    }

    if (inj.armed() && inj.shouldFire("measure.nan", cell_key, attempt)) {
        // Models corrupted telemetry (an overflowed ECC log, a torn
        // counter read): the numbers arrive, but are garbage. The
        // dataset builder is expected to quarantine the sample.
        DFAULT_WARN("injected measurement corruption for ", config.label,
                    " at ", op.label());
        if (!m.run.werSeries.empty())
            m.run.werSeries.back() =
                std::numeric_limits<double>::quiet_NaN();
        if (!m.run.cePerDevice.empty())
            m.run.cePerDevice.front() =
                std::numeric_limits<double>::quiet_NaN();
    }

    // publish*() so a sweep cell's deferral can capture these (see
    // sweep(): drop on a failed attempt, replay from a checkpoint).
    obs::publishCounter("campaign.measurements",
                        "characterization experiments completed");
    if (m.run.crashed)
        obs::publishCounter("campaign.crashes",
                            "experiments ended by a UE");
    const double wer = m.run.wer();
    if (wer > 0.0) {
        obs::publishDistribution("campaign.wer_log10", -14.0, 0.0, 28,
                                 "log10 of measured aggregate WER",
                                 std::log10(wer));
        // Log-bucketed companion with streaming quantiles: WER spans
        // ~10 decades across the grid, exactly the log-bucket sweet
        // spot. Deferral-aware so checkpoint replay reproduces
        // bit-identical quantiles.
        obs::publishHistogram("campaign.wer",
                              "measured aggregate WER per experiment",
                              wer);
    }

    auto &sink = obs::EventSink::instance();
    if (sink.enabled()) {
        obs::JsonWriter w;
        w.field("label", m.label);
        w.field("threads", m.threads);
        w.field("trefp_s", op.trefp);
        w.field("vdd_v", op.vdd);
        w.field("target_c", op.temperature);
        w.field("temp_c", m.achieved.temperature);
        w.field("run_seed", run_seed);
        w.field("wer", wer);
        w.field("epochs",
                static_cast<std::uint64_t>(m.run.werSeries.size()));
        w.field("crashed", m.run.crashed);
        if (m.run.crashed) {
            w.field("crash_epoch", m.run.crashEpoch);
            w.field("crash_device", m.run.crashDevice);
        }
        w.field("host_seconds", integrate_seconds);
        sink.emit("measurement", w);
    }
    obs::progress(
        m.label + " at " + op.label() + ": wer=" +
        detail::concat(wer) +
        (m.run.crashed
             ? " UE@min" + std::to_string(m.run.crashEpoch)
             : ""));
    // Cell latency goes straight to the registry, not through the
    // deferral: wall time is nondeterministic, so replaying a stale
    // duration on checkpoint resume would be worse than dropping it.
    obs::Registry::instance()
        .histogram("campaign.cell_ns",
                   "characterization cell wall-clock (nanoseconds)")
        .record(std::chrono::duration<double, std::nano>(
                    std::chrono::steady_clock::now() - cell_start)
                    .count());
    // Live progress for the telemetry sampler: immediate (the deferred
    // campaign.* twins above only land after the whole batch), counted
    // per attempt, and under the digest-excluded live.* prefix so
    // faulted retries cannot perturb provenance digests.
    auto &live = obs::Registry::instance();
    live.counter("live.campaign.cells_done",
                 "measurement attempts finished (live, incl. retries)")
        .inc();
    if (m.run.crashed)
        live.counter("live.campaign.crashes",
                     "measurement attempts ended by a UE (live)")
            .inc();
    if (wer > 0.0)
        live.gauge("live.campaign.wer_log10",
                   "log10 WER of the latest measurement (live)")
            .set(std::log10(wer));
    return m;
}

sys::Platform &
CharacterizationCampaign::slotPlatform()
{
    const int slot = par::Pool::currentSlot();
    if (slot <= 0)
        return platform_;
    DFAULT_ASSERT(static_cast<std::size_t>(slot) < replicas_.size(),
                  "pool slot without a replica array entry");
    auto &replica = replicas_[static_cast<std::size_t>(slot)];
    if (!replica)
        replica = platform_.clone();
    return *replica;
}

void
CharacterizationCampaign::prepareReplicas()
{
    const auto slots =
        static_cast<std::size_t>(par::Pool::global().slots());
    if (replicas_.size() < slots)
        replicas_.resize(slots);
}

std::vector<Measurement>
CharacterizationCampaign::sweep(
    const std::vector<workloads::WorkloadConfig> &suite,
    const std::vector<dram::OperatingPoint> &points)
{
    const obs::ScopedTimer sweep_timer("sweep");
    const std::size_t total = suite.size() * points.size();
    prepareReplicas();
    lastQuarantine_.clear();
    auto &pool = par::Pool::global();

    // Profile every workload before the cell loop. The cache fills
    // exactly once per config either way; doing it up front keeps the
    // platform.* / profile.* stats independent of which cells are
    // measured fresh, restored from a checkpoint, or quarantined.
    const par::CancelToken token = params_.cancelToken.valid()
                                       ? params_.cancelToken
                                       : par::rootCancelToken();
    {
        par::ResilienceOptions profile_opts;
        profile_opts.maxRetries = params_.taskRetries;
        profile_opts.failFast = true;
        profile_opts.token = token;
        pool.parallelForResilient(
            suite.size(),
            [&](std::size_t w, int) {
                features::ProfileCache::instance().get(
                    slotPlatform(), suite[w], params_.workload);
            },
            profile_opts);
    }

    obs::RecordStore checkpoint;
    std::map<std::size_t, CheckpointCell> restored;
    if (!params_.checkpointDir.empty()) {
        checkpoint.open(params_.checkpointDir,
                        sweepConfigDigest(params_, suite, points));
        restored = loadCheckpointCells(checkpoint, total);
        if (!restored.empty())
            obs::progress("checkpoint: restoring " +
                          std::to_string(restored.size()) + "/" +
                          std::to_string(total) + " cells from " +
                          params_.checkpointDir);
    }

    // One task per (workload, point) cell, committed in cell order:
    // the result vector is identical whatever the worker schedule.
    std::vector<Measurement> out(total);
    std::vector<std::vector<obs::StatOp>> cell_ops(total);

    par::ResilienceOptions opts;
    opts.maxRetries = params_.taskRetries;
    opts.failFast = params_.failFast;
    opts.token = token;
    const auto failures = pool.parallelForResilient(
        total,
        [&](std::size_t i, int attempt) {
            if (restored.count(i) != 0)
                return; // committed after the batch, in cell order
            const auto &config = suite[i / points.size()];
            const auto &op = points[i % points.size()];
            obs::progress("experiment " + std::to_string(i + 1) + "/" +
                          std::to_string(total) + ": " + config.label +
                          " at " + op.label());
            // Buffer this cell's stat updates: a failed attempt must
            // contribute nothing, and a successful one is journaled
            // with the cell and applied post-batch in cell order.
            obs::StatsDeferral deferral;
            Measurement m = measureOn(slotPlatform(), config, op, 0,
                                      nullptr, attempt);
            std::vector<obs::StatOp> ops = deferral.take();
            if (checkpoint.enabled()) {
                if (!checkpoint.write(
                        kCheckpointCell, i,
                        checkpointCellJson({i, m, ops},
                                           checkpoint.digest()) +
                            "\n"))
                    DFAULT_WARN("checkpoint: failed to record cell ", i,
                                "; it will be re-measured on resume");
                // Chaos testing: a kill between journal writes.
                fi::Injector::instance().maybeKill("sweep.kill", i);
            }
            out[i] = std::move(m);
            cell_ops[i] = std::move(ops);
        },
        opts);

    // Failed cells (only reachable when !failFast) are quarantined;
    // cancelled cells are a distinct disposition — marked but never
    // quarantined, reported or journaled, so a resumed sweep simply
    // re-measures them.
    std::size_t n_quarantined = 0;
    std::size_t n_cancelled = 0;
    for (const par::TaskFailure &f : failures) {
        const auto &config = suite[f.index / points.size()];
        const auto &op = points[f.index % points.size()];
        Measurement &m = out[f.index];
        m.label = config.label;
        m.threads = config.threads;
        m.requested = op;
        m.achieved = op;
        m.failure = f.error;
        if (f.disposition == par::TaskDisposition::Cancelled) {
            m.cancelled = true;
            ++n_cancelled;
            continue;
        }
        m.quarantined = true;
        ++n_quarantined;
        lastQuarantine_.push_back(
            {f.index, config.label, op.label(), f.attempts, f.error});
        DFAULT_WARN("sweep: quarantined cell ", f.index, " (",
                    config.label, " at ", op.label(), ") after ",
                    f.attempts, " attempt(s): ", f.error);
    }
    if (n_quarantined > 0)
        obs::Registry::instance()
            .counter("fi.quarantined_slots",
                     "sweep cells quarantined after exhausting retries")
            .inc(n_quarantined);
    if (n_cancelled > 0)
        DFAULT_INFORM("sweep: ", n_cancelled, " cell(s) cancelled (",
                      token.cancelled() ? token.reason()
                                        : std::string("task token"),
                      ")",
                      checkpoint.enabled()
                          ? "; rerun with the same checkpoint dir to"
                            " finish them"
                          : "");

    // Restored cells: rebuild the measurement (profile pointer from
    // the cache warmed above) and queue their journaled stat ops.
    for (auto &[index, cell] : restored) {
        Measurement m = std::move(cell.measurement);
        m.profile = &features::ProfileCache::instance().get(
            platform_, suite[index / points.size()], params_.workload);
        out[index] = std::move(m);
        cell_ops[index] = std::move(cell.statOps);
    }
    if (!restored.empty())
        obs::Registry::instance()
            .counter("fi.checkpoint_restored",
                     "sweep cells restored from a checkpoint journal")
            .inc(restored.size());

    // Apply every cell's stats in cell order: fresh, restored and
    // resumed runs all reach the identical registry state.
    for (std::size_t i = 0; i < total; ++i)
        obs::applyStatOps(cell_ops[i]);

    return out;
}

double
CharacterizationCampaign::measurePue(
    const workloads::WorkloadConfig &config,
    const dram::OperatingPoint &op, int repeats)
{
    DFAULT_ASSERT(repeats > 0, "PUE needs at least one repeat");
    const obs::ScopedTimer pue_timer("pue");
    prepareReplicas();
    const auto crashed = par::Pool::global().parallelMap<char>(
        static_cast<std::size_t>(repeats), [&](std::size_t r) {
            const Measurement m =
                measureOn(slotPlatform(), config, op,
                          static_cast<std::uint64_t>(r) + 1, nullptr);
            return static_cast<char>(m.run.crashed ? 1 : 0);
        });
    int crashes = 0;
    for (const char c : crashed)
        crashes += c;
    return static_cast<double>(crashes) / static_cast<double>(repeats);
}

std::vector<dram::OperatingPoint>
werOperatingPoints()
{
    std::vector<dram::OperatingPoint> points;
    for (const Celsius temp : {50.0, 60.0}) {
        for (const Seconds trefp : dram::kWerTrefpLevels)
            points.push_back({trefp, dram::kMinVdd, temp});
    }
    // At 70 C only the two shortest TREFP levels stay UE-free (paper
    // §V-B); longer periods crash and contribute to the PUE study.
    points.push_back({0.618, dram::kMinVdd, 70.0});
    points.push_back({1.173, dram::kMinVdd, 70.0});
    return points;
}

std::vector<dram::OperatingPoint>
pueOperatingPoints()
{
    std::vector<dram::OperatingPoint> points;
    for (const Seconds trefp : dram::kUeTrefpLevels)
        points.push_back({trefp, dram::kMinVdd, 70.0});
    return points;
}

} // namespace dfault::core
