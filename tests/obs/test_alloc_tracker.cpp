/**
 * @file
 * Opt-in heap attribution: disabled by default, tallies per-thread
 * allocation volume when enabled, and feeds per-phase
 * alloc.phase.<path>.* stats through ScopedTimer.
 */

#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/alloc_tracker.hh"
#include "obs/span.hh"
#include "obs/stats.hh"

namespace {

using dfault::obs::AllocTracker;

/** Scoped enable so a failing assertion can't leak the global flag. */
class Enabled
{
  public:
    Enabled() { AllocTracker::enable(); }
    ~Enabled() { AllocTracker::disable(); }
};

TEST(AllocTracker, DisabledByDefaultAndInert)
{
    ASSERT_FALSE(AllocTracker::enabled());
    const auto before = AllocTracker::threadTotals();
    auto waste = std::make_unique<std::vector<char>>(1 << 16);
    waste->front() = 1;
    const auto after = AllocTracker::threadTotals();
    EXPECT_EQ(after.bytes, before.bytes);
    EXPECT_EQ(after.allocs, before.allocs);
}

TEST(AllocTracker, TalliesBytesAndCounts)
{
    Enabled on;
    AllocTracker::resetThread();
    constexpr std::size_t kBytes = 1 << 20;
    auto block = std::make_unique<std::vector<char>>(kBytes);
    block->back() = 1;
    const auto totals = AllocTracker::threadTotals();
    EXPECT_GE(totals.bytes, kBytes);
    EXPECT_GE(totals.allocs, 1u);
}

TEST(AllocTracker, AlignedAllocationsCount)
{
    Enabled on;
    AllocTracker::resetThread();
    struct alignas(64) Wide
    {
        char data[128];
    };
    auto wide = std::make_unique<Wide>();
    wide->data[0] = 1;
    const auto totals = AllocTracker::threadTotals();
    EXPECT_GE(totals.bytes, sizeof(Wide));
    EXPECT_GE(totals.allocs, 1u);
}

TEST(AllocTracker, TotalsArePerThread)
{
    Enabled on;
    AllocTracker::resetThread();
    AllocTracker::Totals other{};
    std::thread t([&] {
        AllocTracker::resetThread();
        auto block = std::make_unique<std::vector<char>>(1 << 18);
        block->front() = 1;
        other = AllocTracker::threadTotals();
    });
    t.join();
    EXPECT_GE(other.bytes, static_cast<std::uint64_t>(1 << 18));
    // The worker's allocations never land in this thread's tally.
    EXPECT_LT(AllocTracker::threadTotals().bytes,
              static_cast<std::uint64_t>(1 << 18));
}

TEST(AllocTracker, PhaseAttributionThroughScopedTimer)
{
    Enabled on;
    dfault::obs::Registry reg;
    {
        dfault::obs::ScopedTimer phase("alloc_heavy", &reg);
        auto block = std::make_unique<std::vector<char>>(1 << 19);
        block->front() = 1;
    }
    ASSERT_TRUE(reg.has("alloc.phase.alloc_heavy.bytes"));
    ASSERT_TRUE(reg.has("alloc.phase.alloc_heavy.allocs"));
    EXPECT_GE(reg.value("alloc.phase.alloc_heavy.bytes"),
              static_cast<double>(1 << 19));
    EXPECT_GE(reg.value("alloc.phase.alloc_heavy.allocs"), 1.0);
}

TEST(AllocTracker, NoPhaseStatsWhenDisabled)
{
    ASSERT_FALSE(AllocTracker::enabled());
    dfault::obs::Registry reg;
    {
        dfault::obs::ScopedTimer phase("quiet_phase", &reg);
        auto block = std::make_unique<std::vector<char>>(1 << 12);
        block->front() = 1;
    }
    EXPECT_FALSE(reg.has("alloc.phase.quiet_phase.bytes"));
}

} // namespace
