/**
 * @file
 * perf_event_open counter sampling — above all the graceful-fallback
 * contract: when the syscall is unavailable (no PMU, paranoid
 * sysctl, or DFAULT_PERF_DISABLE), nothing throws, samples read
 * invalid-and-zero, and ScopedCounters still registers every stat a
 * counter-enabled host would, just with zero values. The group-read
 * machinery itself is exercised with software events, which work on
 * PMU-less hosts too (and are skipped cleanly where even they fail).
 */

#include <cstdlib>

#include <gtest/gtest.h>

#include "obs/perf_counters.hh"
#include "obs/span.hh"
#include "obs/stats.hh"

#if defined(__linux__)
#include <linux/perf_event.h>
#endif

namespace {

using dfault::obs::PerfCounters;
using dfault::obs::PerfSample;
using dfault::obs::Registry;
using dfault::obs::ScopedCounters;

/** Scoped DFAULT_PERF_DISABLE=1 so the fallback path is forced. */
class ForceDisabled
{
  public:
    ForceDisabled() { setenv("DFAULT_PERF_DISABLE", "1", 1); }
    ~ForceDisabled() { unsetenv("DFAULT_PERF_DISABLE"); }
};

TEST(PerfCountersFallback, ForcedOffIsCleanNoOp)
{
    ForceDisabled off;
    ASSERT_TRUE(PerfCounters::forcedOff());
    PerfCounters pc;
    EXPECT_FALSE(pc.available());
    EXPECT_NE(pc.unavailableReason().find("DFAULT_PERF_DISABLE"),
              std::string::npos);
    const PerfSample s = pc.sample();
    EXPECT_FALSE(s.valid);
    EXPECT_EQ(s.cycles, 0u);
    EXPECT_EQ(s.instructions, 0u);
    std::vector<std::uint64_t> values{42};
    EXPECT_FALSE(pc.readValues(values));
    EXPECT_TRUE(values.empty());
    EXPECT_TRUE(pc.liveEvents().empty());
}

TEST(PerfCountersFallback, InvalidDeltaIsZeroAndInvalid)
{
    PerfSample a, b;
    a.cycles = 100;
    b.valid = false;
    const PerfSample d = a.deltaSince(b);
    EXPECT_FALSE(d.valid);
}

TEST(PerfCountersFallback, ScopedCountersStillRegistersZeroStats)
{
    // The acceptance contract: unavailability degrades to
    // registered-but-zero stats, never to missing names or a throw.
    ForceDisabled off;
    Registry reg;
    {
        ScopedCounters sc("ecc_encode", &reg);
    }
    for (const char *stat :
         {"perf.ecc_encode.cycles", "perf.ecc_encode.instructions",
          "perf.ecc_encode.cache_misses",
          "perf.ecc_encode.branch_misses"}) {
        ASSERT_TRUE(reg.has(stat)) << stat;
        EXPECT_EQ(reg.value(stat), 0.0) << stat;
    }
    // Derived formulas exist and divide-by-zero safely.
    ASSERT_TRUE(reg.has("perf.ecc_encode.ipc"));
    EXPECT_EQ(reg.value("perf.ecc_encode.ipc"), 0.0);
    ASSERT_TRUE(reg.has("perf.ecc_encode.cache_miss_per_kinstr"));
    EXPECT_EQ(reg.value("perf.ecc_encode.cache_miss_per_kinstr"), 0.0);
    ASSERT_TRUE(reg.has("perf.available"));
}

TEST(PerfCountersFallback, SaturatingDeltaNeverUnderflows)
{
    PerfSample earlier, later;
    earlier.valid = later.valid = true;
    earlier.cycles = 500;
    later.cycles = 300; // counter reset / migration artifact
    const PerfSample d = later.deltaSince(earlier);
    EXPECT_TRUE(d.valid);
    EXPECT_EQ(d.cycles, 0u);
}

TEST(PerfCounters, DefaultGroupEitherWorksOrReportsWhy)
{
    PerfCounters pc;
    if (pc.available()) {
        std::vector<std::uint64_t> values;
        EXPECT_TRUE(pc.readValues(values));
        EXPECT_EQ(values.size(), pc.liveEvents().size());
        EXPECT_TRUE(pc.sample().valid);
    } else {
        EXPECT_FALSE(pc.unavailableReason().empty());
        EXPECT_FALSE(pc.sample().valid);
    }
}

#if defined(__linux__)
TEST(PerfCounters, SoftwareEventGroupReads)
{
    // Software events need no PMU, so this exercises the real group
    // open/read path even inside VMs — unless perf_event_paranoid
    // blocks the syscall entirely, which we skip over.
    PerfCounters pc({{PERF_TYPE_SOFTWARE, PERF_COUNT_SW_TASK_CLOCK,
                      "task_clock"},
                     {PERF_TYPE_SOFTWARE, PERF_COUNT_SW_PAGE_FAULTS,
                      "page_faults"}});
    if (!pc.available())
        GTEST_SKIP() << "perf_event_open blocked: "
                     << pc.unavailableReason();
    // Burn a little CPU so task-clock advances.
    volatile double sink = 0.0;
    for (int i = 0; i < 2000000; ++i)
        sink += static_cast<double>(i) * 1e-9;
    std::vector<std::uint64_t> values;
    ASSERT_TRUE(pc.readValues(values));
    ASSERT_EQ(values.size(), pc.liveEvents().size());
    ASSERT_GE(values.size(), 1u);
    EXPECT_GT(values[0], 0u) << "task-clock should have advanced";
    // Custom events outside the default four map to no named field.
    const PerfSample s = pc.sample();
    EXPECT_TRUE(s.valid);
    EXPECT_EQ(s.cycles, 0u);
}
#endif

TEST(PerfCountersPhase, TimerPublishesPerPhaseStats)
{
    Registry reg;
    PerfCounters::setPhaseProfiling(true);
    {
        dfault::obs::ScopedTimer outer("profile_me", &reg);
    }
    PerfCounters::setPhaseProfiling(false);
    // Registered whether or not the host has counters; zero without.
    ASSERT_TRUE(reg.has("perf.phase.profile_me.cycles"));
    ASSERT_TRUE(reg.has("perf.phase.profile_me.ipc"));
    EXPECT_TRUE(reg.has("time.profile_me.seconds"));
}

TEST(PerfCountersPhase, DisabledProfilingPublishesNothing)
{
    Registry reg;
    ASSERT_FALSE(PerfCounters::phaseProfiling());
    {
        dfault::obs::ScopedTimer outer("quiet", &reg);
    }
    EXPECT_FALSE(reg.has("perf.phase.quiet.cycles"));
}

TEST(PerfTable, PrintsScopesOrNothing)
{
    Registry reg;
    {
        ForceDisabled off;
        ScopedCounters sc("kernel_a", &reg);
    }
    std::FILE *sink = std::tmpfile();
    ASSERT_NE(sink, nullptr);
    dfault::obs::printPerfTable(sink, &reg);
    std::fflush(sink);
    const long wrote = std::ftell(sink);
    std::fclose(sink);
    EXPECT_GT(wrote, 0) << "a registered scope should print a table";

    Registry empty;
    std::FILE *sink2 = std::tmpfile();
    ASSERT_NE(sink2, nullptr);
    dfault::obs::printPerfTable(sink2, &empty);
    std::fflush(sink2);
    EXPECT_EQ(std::ftell(sink2), 0L)
        << "no scopes -> no table at all";
    std::fclose(sink2);
}

} // namespace
