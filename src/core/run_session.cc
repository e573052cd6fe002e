#include "core/run_session.hh"

#include <algorithm>
#include <cstdio>
#include <string_view>
#include <utility>

#include "common/logging.hh"
#include "core/report.hh"
#include "fi/injector.hh"
#include "obs/alloc_tracker.hh"
#include "obs/events.hh"
#include "obs/manifest.hh"
#include "obs/perf_counters.hh"
#include "obs/sampler.hh"
#include "obs/span.hh"
#include "obs/stats.hh"
#include "obs/timer.hh"
#include "obs/trace_writer.hh"
#include "par/cancel.hh"
#include "par/pool.hh"
#include "par/shutdown.hh"

namespace dfault::core {

namespace {

/** CLI flag name -> whether it takes "=<value>" (else it is a switch
 *  meaning "=true"). The session key is the name with '-' -> '_'. */
constexpr std::pair<std::string_view, bool> kCliFlags[] = {
    {"stats-out", true},      {"trace-out", true},
    {"trace-events", true},   {"manifest-out", true},
    {"quarantine-out", true}, {"progress", false},
    {"perf-counters", false}, {"alloc-track", false},
    {"metrics-out", true},    {"metrics-port", true},
    {"sample-interval", true}};

} // namespace

std::vector<std::string>
cliArgs(int argc, const char *const *argv)
{
    std::vector<std::string> args(argv, argv + argc);
    for (std::size_t i = 1; i < args.size(); ++i) {
        std::string &arg = args[i];
        if (!arg.starts_with("--"))
            continue;
        const std::size_t eq = arg.find('=');
        std::string key = arg.substr(2, eq - 2); // npos: to the end
        const auto *flag = std::find_if(
            std::begin(kCliFlags), std::end(kCliFlags), [&](auto &f) {
                return f.first == key &&
                       f.second == (eq != std::string::npos);
            });
        if (flag == std::end(kCliFlags)) {
            std::string known;
            for (const auto &[name, value] : kCliFlags)
                known += (known.empty() ? "--" : ", --") +
                         std::string(name) + (value ? "=" : "");
            DFAULT_FATAL("unknown flag '", arg,
                         "'; telemetry flags are ", known);
        }
        std::replace(key.begin(), key.end(), '-', '_');
        arg = key + (eq == std::string::npos ? "=true" : arg.substr(eq));
    }
    return args;
}

RunSession::RunSession(int argc, const char *const *argv)
    : RunSession(std::vector<std::string>(argv, argv + argc))
{
}

RunSession::RunSession(const std::vector<std::string> &args)
    : start_(std::chrono::steady_clock::now())
{
    // Install before any work starts so an early ^C already drains
    // cooperatively instead of killing the run mid-write.
    par::installSignalHandlers();
    tool_ = args.empty() ? "run" : args[0];
    tool_ = tool_.substr(tool_.find_last_of('/') + 1);
    std::vector<const char *> argv;
    for (std::size_t i = 0; i < args.size(); ++i) {
        if (i > 0)
            commandLine_ += ' ';
        commandLine_ += args[i];
        argv.push_back(args[i].c_str());
    }
    positionals_ =
        config_.parseArgs(static_cast<int>(argv.size()), argv.data());

    // Touching the injector here validates a malformed DFAULT_FAULTS
    // spec up front, even on runs that never reach a fault point.
    const std::string faults = config_.getString("faults", "");
    if (!faults.empty())
        fi::Injector::instance().arm(faults);
    else
        (void)fi::Injector::instance();
    const int threads =
        static_cast<int>(config_.getIntIn("threads", 0, 1, 4096));
    if (threads > 0)
        par::Pool::setGlobalThreads(threads);

    const std::uint64_t footprint =
        static_cast<std::uint64_t>(
            config_.getIntIn("footprint_mib", 16, 1, 1 << 20))
        << 20;
    sys::Platform::Params pp;
    pp.exec.timeDilation = sys::dilationForFootprint(footprint);
    platform_ = std::make_unique<sys::Platform>(pp);

    CharacterizationCampaign::Params cp;
    cp.workload.footprintBytes = footprint;
    cp.workload.workScale =
        config_.getDoubleIn("work_scale", 1.0, 1e-6, 1000.0);
    cp.integrator.epochs =
        static_cast<int>(config_.getIntIn("epochs", 120, 1, 1000000));
    cp.useThermalLoop = config_.getBool("thermal_loop", true);
    cp.taskRetries = static_cast<int>(
        config_.getIntIn("retries", cp.taskRetries, 0, 1000));
    cp.failFast = config_.getBool("fail_fast", cp.failFast);
    cp.checkpointDir = config_.getString("checkpoint", "");
    campaign_ = std::make_unique<CharacterizationCampaign>(*platform_, cp);

    statsOut_ = config_.getString("stats_out", "");
    const std::string trace = config_.getString("trace_out", "");
    if (!trace.empty())
        obs::EventSink::instance().open(trace);
    traceEvents_ = config_.getString("trace_events", "");
    if (!traceEvents_.empty())
        obs::SpanTracer::instance().enable();
    obs::setProgress(config_.getBool("progress", false));
    perfCounters_ = config_.getBool("perf_counters", false);
    if (perfCounters_) {
        obs::PerfCounters::setPhaseProfiling(true);
        const auto &pc = obs::PerfCounters::threadInstance();
        if (!pc.available())
            DFAULT_INFORM("perf counters unavailable (",
                          pc.unavailableReason(),
                          "); perf.* stats will read zero");
    }
    if (config_.getBool("alloc_track", false))
        obs::AllocTracker::enable();

    // Supervision: a watchdog for silent tasks and a wall-clock
    // deadline for the whole run. 0 (the default) disables each.
    par::WatchdogOptions wd;
    wd.taskTimeoutSeconds =
        config_.getDoubleIn("task_timeout", 0.0, 0.0, 86400.0);
    wd.deadlineSeconds = config_.getDoubleIn("deadline", 0.0, 0.0, 86400.0);
    if (wd.taskTimeoutSeconds > 0.0 || wd.deadlineSeconds > 0.0)
        par::Pool::global().enableWatchdog(wd);

    startSampler();
}

/** Any sampler knob switches the background sampler on. */
void
RunSession::startSampler()
{
    metricsOut_ = config_.getString("metrics_out", "");
    const std::string interval = config_.getString("sample_interval", "");
    const std::string slo_specs = config_.getString("slo", "");
    const int metrics_port =
        static_cast<int>(config_.getIntIn("metrics_port", -1, -1, 65535));
    if (metricsOut_.empty() && metrics_port < 0 && slo_specs.empty() &&
        interval.empty())
        return;
    obs::SamplerOptions so;
    if (!interval.empty()) {
        const auto seconds = obs::parseDurationSeconds(interval);
        if (!seconds || *seconds <= 0.0)
            DFAULT_FATAL("malformed sample_interval '", interval,
                         "' (want e.g. 100ms, 2s)");
        so.intervalSeconds = *seconds;
    }
    so.metricsOutPath = metricsOut_;
    so.metricsPort = metrics_port;
    for (std::size_t begin = 0; begin < slo_specs.size();) {
        const std::size_t end =
            std::min(slo_specs.find(',', begin), slo_specs.size());
        const std::string spec = slo_specs.substr(begin, end - begin);
        if (!spec.empty()) {
            std::string error;
            const auto target = obs::parseSloTarget(spec, &error);
            if (!target)
                DFAULT_FATAL("bad slo spec '", spec, "': ", error);
            so.sloTargets.push_back(*target);
        }
        begin = end + 1;
    }
    obs::Sampler::instance().start(so);
    const auto &server = obs::Sampler::instance().server();
    if (server.running())
        DFAULT_INFORM("serving OpenMetrics on http://127.0.0.1:",
                      server.port(), "/metrics");
}

RunSession::~RunSession() { teardown(); }

int
RunSession::run(const std::function<int(RunSession &)> &body)
{
    int rc;
    try {
        rc = body(*this);
    } catch (const par::CancelledError &e) {
        // Cooperative cancellation (signal, deadline, fail_fast)
        // unwound the body after in-flight tasks drained: the epilogue
        // still writes every artifact, partial but valid, with the
        // manifest marked interrupted.
        DFAULT_WARN("run cancelled: ", e.what(),
                    "; writing partial artifacts");
        rc = 1;
    }
    epilogue();
    // Signal-driven runs exit with the conventional 128+signo so
    // shells and CI can tell an interrupted run from a failed one.
    const int sig = par::shutdownExitCode();
    return sig != 0 ? sig : rc;
}

void
RunSession::epilogue()
{
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start_)
                            .count();
    const auto phases = obs::phaseTimes();
    if (!phases.empty()) {
        std::printf("\n%-36s %12s %8s\n", "phase", "seconds", "calls");
        for (const auto &p : phases)
            std::printf("%-36s %12.3f %8llu\n", p.path.c_str(), p.seconds,
                        static_cast<unsigned long long>(p.calls));
    }
    std::printf("\ntotal wall clock %.3f s\n", wall);
    if (perfCounters_)
        obs::printPerfTable(stdout);

    auto &tracer = obs::SpanTracer::instance();
    if (tracer.enabled()) {
        tracer.disable();
        const auto entries = tracer.drain();
        std::printf("\n");
        obs::printCriticalPath(stdout, obs::exclusiveTimes(entries));
        if (tracer.dropped() > 0)
            DFAULT_WARN("span ring overflow: ", tracer.dropped(),
                        " oldest trace entries dropped");
        if (!obs::writeTraceFile(traceEvents_, entries))
            DFAULT_FATAL("cannot write trace events to '", traceEvents_,
                         "'");
        DFAULT_INFORM("trace events written to ", traceEvents_,
                      " (load in ui.perfetto.dev)");
    }

    // Record what the injector actually did this run; fi.* stats are
    // excluded from the manifest digest, so a faulted run can still
    // digest-match a clean one.
    auto &inj = fi::Injector::instance();
    if (inj.armed()) {
        // Chaos hook for the drain path itself: lets CI check that a
        // single signal waits for the artifacts and a second one still
        // exits immediately.
        inj.maybeStall("shutdown.slow_drain", 0);
        for (const auto &[point, fired] : inj.firedCounts())
            obs::Registry::instance()
                .gauge("fi.fired." + point, "times this fault point fired")
                .set(static_cast<double>(fired));
    }

    const auto &quarantine = campaign_->lastQuarantine();
    std::string quarantine_path = config_.getString("quarantine_out", "");
    if (quarantine_path.empty() && !statsOut_.empty())
        quarantine_path = statsOut_ + ".quarantine.json";
    if (!quarantine.empty() && !quarantine_path.empty()) {
        if (!writeQuarantineFile(quarantine, quarantine_path))
            DFAULT_FATAL("cannot write quarantine report to '",
                         quarantine_path, "'");
        DFAULT_INFORM(quarantine.size(),
                      " quarantined cell(s); report written to ",
                      quarantine_path);
    }

    // Stop the sampler before stats and manifest: stop() runs the final
    // flush tick (last metrics snapshot, final SLO verdicts) and emits
    // closing slo_breach events while the event sink is still open.
    auto &sampler = obs::Sampler::instance();
    const bool sampled = sampler.running() || sampler.ticks() > 0;
    sampler.stop();
    if (sampled && !metricsOut_.empty())
        DFAULT_INFORM("OpenMetrics snapshot written to ", metricsOut_);

    if (!statsOut_.empty()) {
        obs::Registry::instance().writeFile(statsOut_);
        DFAULT_INFORM("stats written to ", statsOut_);
    }
    // Provenance: tie every artifact back to the run that produced it
    // (the digest covers the deterministic stats only, so a same-seed
    // re-run reproduces it exactly).
    std::string manifest_path = config_.getString("manifest_out", "");
    if (manifest_path.empty() && !statsOut_.empty())
        manifest_path = statsOut_ + ".manifest.json";
    if (!manifest_path.empty()) {
        obs::ManifestInfo info;
        info.tool = tool_;
        info.command = commandLine_;
        for (const std::string &key : config_.keys())
            info.config.emplace_back(key, config_.getString(key));
        info.threads = par::Pool::global().threads();
        info.statsPath = statsOut_;
        info.tracePath = traceEvents_;
        info.wallSeconds = wall;
        if (par::rootCancelToken().cancelled()) {
            info.interrupted = true;
            info.interruptReason = par::rootCancelToken().reason();
        }
        info.resumedFromTick = resumedFromTick_;
        if (sampled) {
            info.metricsPath = metricsOut_;
            info.samplerTicks = sampler.ticks();
            info.sloSummaryJson = sampler.sloSummaryJson();
        }
        if (!obs::writeManifestFile(manifest_path, info))
            DFAULT_FATAL("cannot write manifest to '", manifest_path, "'");
        DFAULT_INFORM("run manifest written to ", manifest_path);
    }
    teardown();
}

void
RunSession::teardown()
{
    if (!active_)
        return;
    active_ = false;
    obs::Sampler::instance().stop();
    obs::EventSink::instance().close();
    par::Pool::global().disableWatchdog();
    par::uninstallSignalHandlers();
}

} // namespace dfault::core
