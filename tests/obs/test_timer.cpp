/**
 * @file
 * Scoped-timer tests: scope-stack nesting, adoption of a captured
 * scope, accumulation into the stats registry and the phaseTimes()
 * report.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <thread>

#include "obs/span.hh"
#include "obs/stats.hh"

namespace dfault::obs {
namespace {

TEST(ScopedTimer, NestingBuildsDottedPaths)
{
    Registry reg;
    EXPECT_EQ(currentScope().path, "");
    {
        const ScopedTimer outer("cross_validate", &reg);
        EXPECT_EQ(currentScope().path, "cross_validate");
        {
            const ScopedTimer mid("fold", &reg);
            EXPECT_EQ(currentScope().path, "cross_validate.fold");
            const ScopedTimer inner("train", &reg);
            EXPECT_EQ(currentScope().path, "cross_validate.fold.train");
        }
        EXPECT_EQ(currentScope().path, "cross_validate");
    }
    EXPECT_EQ(currentScope().path, "");

    EXPECT_TRUE(reg.has("time.cross_validate.seconds"));
    EXPECT_TRUE(reg.has("time.cross_validate.fold.seconds"));
    EXPECT_TRUE(reg.has("time.cross_validate.fold.train.seconds"));
    EXPECT_EQ(reg.value("time.cross_validate.fold.train.calls"), 1.0);
}

TEST(ScopedTimer, AccumulatesAcrossRepeatedEntries)
{
    Registry reg;
    for (int i = 0; i < 3; ++i) {
        const ScopedTimer t("phase_x", &reg);
    }
    EXPECT_EQ(reg.value("time.phase_x.calls"), 3.0);
    EXPECT_GE(reg.value("time.phase_x.seconds"), 0.0);
}

TEST(ScopedTimer, ParentTimeIncludesChildTime)
{
    Registry reg;
    {
        const ScopedTimer outer("outer", &reg);
        const ScopedTimer inner("work", &reg);
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    const double outer_s = reg.value("time.outer.seconds");
    const double inner_s = reg.value("time.outer.work.seconds");
    EXPECT_GT(inner_s, 0.0);
    EXPECT_GE(outer_s, inner_s); // inclusive timing
}

TEST(ScopedTimer, ElapsedGrowsMonotonically)
{
    Registry reg;
    const ScopedTimer t("tick", &reg);
    const double a = t.elapsed();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    const double b = t.elapsed();
    EXPECT_GE(a, 0.0);
    EXPECT_GT(b, a);
}

TEST(ScopedTimer, PhaseStacksAreThreadLocal)
{
    Registry reg;
    const ScopedTimer outer("main_phase", &reg);
    std::string other_path = "unset";
    std::thread worker([&] {
        // A fresh thread starts at the top level, not inside
        // "main_phase".
        const ScopedTimer t("worker_phase", &reg);
        other_path = currentScope().path;
    });
    worker.join();
    EXPECT_EQ(other_path, "worker_phase");
    EXPECT_EQ(currentScope().path, "main_phase");
    EXPECT_TRUE(reg.has("time.worker_phase.seconds"));
}

TEST(ScopedTimer, PhaseStackUnwindsWhenTimedRegionThrows)
{
    Registry reg;
    try {
        const ScopedTimer outer("outer", &reg);
        const ScopedTimer inner("inner", &reg);
        throw std::runtime_error("boom");
    } catch (const std::runtime_error &) {
    }
    // Stack unwinding ran both destructors: the thread is back at the
    // top level and both phases still accumulated their time.
    EXPECT_EQ(currentScope().path, "");
    EXPECT_EQ(reg.value("time.outer.calls"), 1.0);
    EXPECT_EQ(reg.value("time.outer.inner.calls"), 1.0);
}

TEST(ScopedTask, RestoresAdopterStackOnScopeExit)
{
    Registry reg;
    const ScopedTimer outer("main_phase", &reg);
    {
        const ScopedTask adopted(Scope{"sweep.measure", 0});
        EXPECT_EQ(currentScope().path, "sweep.measure");
        const ScopedTimer t("integrate", &reg);
        EXPECT_EQ(currentScope().path, "sweep.measure.integrate");
    }
    EXPECT_EQ(currentScope().path, "main_phase");
    EXPECT_TRUE(reg.has("time.sweep.measure.integrate.seconds"));
}

TEST(ScopedTask, RestoresAdopterStackAfterThrow)
{
    Registry reg;
    const ScopedTimer outer("main_phase", &reg);
    try {
        const ScopedTask adopted(Scope{"sweep.measure", 0});
        throw std::runtime_error("boom");
    } catch (const std::runtime_error &) {
    }
    EXPECT_EQ(currentScope().path, "main_phase");
}

TEST(ScopedTask, EmptyPathAdoptsTopLevel)
{
    Registry reg;
    const ScopedTimer outer("main_phase", &reg);
    {
        const ScopedTask adopted(Scope{});
        EXPECT_EQ(currentScope().path, "");
    }
    EXPECT_EQ(currentScope().path, "main_phase");
}

TEST(ScopedTimer, RejectsDottedPhaseNames)
{
    Registry reg;
    EXPECT_DEATH({ ScopedTimer t("a.b", &reg); }, "phase");
}

TEST(PhaseTimes, ReportsEveryRecordedPhaseSorted)
{
    Registry reg;
    {
        const ScopedTimer a("beta", &reg);
    }
    {
        const ScopedTimer b("alpha", &reg);
        const ScopedTimer c("sub", &reg);
    }
    const auto phases = phaseTimes(&reg);
    ASSERT_EQ(phases.size(), 3u);
    EXPECT_EQ(phases[0].path, "alpha");
    EXPECT_EQ(phases[1].path, "alpha.sub");
    EXPECT_EQ(phases[2].path, "beta");
    for (const auto &p : phases) {
        EXPECT_EQ(p.calls, 1u);
        EXPECT_GE(p.seconds, 0.0);
    }
}

TEST(PhaseTimes, EmptyRegistryYieldsNoPhases)
{
    Registry reg;
    EXPECT_TRUE(phaseTimes(&reg).empty());
}

} // namespace
} // namespace dfault::obs
