/**
 * @file
 * One driver run, set up and torn down in one place: every bench
 * binary and the `dfault` CLI is `RunSession(argc, argv).run(body)`.
 *
 * Construction parses the key=value command line (the keys are listed
 * in docs/observability.md "Surfaces"), installs the SIGINT/SIGTERM
 * handlers, arms faults=, sizes the pool from threads=, builds the
 * Platform and CharacterizationCampaign, and switches on the requested
 * telemetry, the watchdog/deadline and the background sampler.
 *
 * run() calls the body and then the one epilogue every driver shares:
 * phase table and wall clock, perf table, critical path and trace
 * file, fault-injection gauges, quarantine report, sampler stop, stats,
 * manifest, and teardown. A par::CancelledError that reaches run()
 * (signal, deadline, fail_fast) is not fatal: the epilogue still
 * writes every artifact with the manifest marked "interrupted", and
 * run() returns 128+signo after a signal, else 1.
 */

#ifndef DFAULT_CORE_RUN_SESSION_HH
#define DFAULT_CORE_RUN_SESSION_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/config.hh"
#include "core/characterization.hh"
#include "sys/platform.hh"

namespace dfault::core {

/**
 * The dfault CLI's spelling of the session keys: `--stats-out=x`
 * becomes `stats_out=x` and `--progress` becomes `progress=true`.
 * Every other argument passes through unchanged; an unknown `--` flag
 * is fatal.
 */
std::vector<std::string> cliArgs(int argc, const char *const *argv);

/** See file comment. */
class RunSession
{
  public:
    explicit RunSession(const std::vector<std::string> &args);
    RunSession(int argc, const char *const *argv);
    /** Tears down whatever run() did not (signal handlers, watchdog,
     *  sampler, event sink). */
    ~RunSession();

    RunSession(const RunSession &) = delete;
    RunSession &operator=(const RunSession &) = delete;

    /**
     * Call @p body, then run the epilogue. Returns 128+signo after a
     * signal-driven shutdown (130 for SIGINT, 143 for SIGTERM), else
     * the body's return code (1 when it was cancelled).
     */
    int run(const std::function<int(RunSession &)> &body);

    sys::Platform &platform() { return *platform_; }
    CharacterizationCampaign &campaign() { return *campaign_; }
    const Config &config() const { return config_; }

    /** Command-line arguments that are not key=value pairs. */
    const std::vector<std::string> &positionals() const
    {
        return positionals_;
    }

    /** Repeats for PUE experiments (paper: 10). */
    int repeats() const
    {
        return static_cast<int>(config_.getInt("repeats", 10));
    }

    /**
     * Record that the serving phase resumed from its write-ahead
     * journal at @p tick; the manifest then carries resumed_from_tick
     * so downstream tooling can tell a resumed run from a fresh one.
     */
    void setResumedFromTick(std::int64_t tick) { resumedFromTick_ = tick; }

  private:
    void startSampler();
    void epilogue();
    void teardown();

    Config config_;
    std::vector<std::string> positionals_;
    std::string tool_;
    std::string commandLine_;
    std::string statsOut_;
    std::string traceEvents_;
    std::string metricsOut_;
    std::int64_t resumedFromTick_ = -1;
    bool perfCounters_ = false;
    bool active_ = true;
    std::chrono::steady_clock::time_point start_;
    std::unique_ptr<sys::Platform> platform_;
    std::unique_ptr<CharacterizationCampaign> campaign_;
};

} // namespace dfault::core

#endif // DFAULT_CORE_RUN_SESSION_HH
