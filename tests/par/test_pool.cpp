/**
 * @file
 * Unit tests for the deterministic work-stealing pool.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "par/pool.hh"

namespace dfault::par {
namespace {

TEST(DefaultThreads, HonoursEnvironmentVariable)
{
    ::setenv("DFAULT_THREADS", "5", 1);
    EXPECT_EQ(defaultThreads(), 5);
    ::unsetenv("DFAULT_THREADS");
    EXPECT_GE(defaultThreads(), 1);
}

TEST(Pool, RunsEveryIndexExactlyOnce)
{
    Pool pool(4);
    constexpr std::size_t n = 1000; // far more than 4*threads chunks
    std::vector<std::atomic<int>> hits(n);
    pool.parallelFor(n, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(Pool, MapCommitsResultsInIndexOrder)
{
    Pool pool(3);
    const auto out = pool.parallelMap<std::size_t>(
        257, [](std::size_t i) { return i * i; });
    ASSERT_EQ(out.size(), 257u);
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], i * i);
}

TEST(Pool, CurrentSlotIsMinusOneOutsideAndBoundedInside)
{
    EXPECT_EQ(Pool::currentSlot(), -1);
    Pool pool(4);
    std::atomic<bool> in_range{true};
    pool.parallelFor(64, [&](std::size_t) {
        const int slot = Pool::currentSlot();
        if (slot < 0 || slot >= pool.slots())
            in_range = false;
    });
    EXPECT_TRUE(in_range.load());
    EXPECT_EQ(Pool::currentSlot(), -1);
}

TEST(Pool, SingleThreadRunsInlineOnTheCaller)
{
    Pool pool(1);
    const auto caller = std::this_thread::get_id();
    std::atomic<bool> same_thread{true};
    pool.parallelFor(32, [&](std::size_t) {
        if (std::this_thread::get_id() != caller)
            same_thread = false;
        if (Pool::currentSlot() != 0)
            same_thread = false;
    });
    EXPECT_TRUE(same_thread.load());
}

TEST(Pool, NestedParallelForRunsInlineWithoutDeadlock)
{
    Pool pool(4);
    std::atomic<int> inner_total{0};
    pool.parallelFor(4, [&](std::size_t) {
        pool.parallelFor(8, [&](std::size_t) { inner_total.fetch_add(1); });
    });
    EXPECT_EQ(inner_total.load(), 32);
}

TEST(Pool, BodyExceptionIsRethrownAndPoolStaysUsable)
{
    Pool pool(4);
    EXPECT_THROW(pool.parallelFor(100,
                                  [](std::size_t i) {
                                      if (i == 37)
                                          throw std::runtime_error("boom");
                                  }),
                 std::runtime_error);

    // The failed batch must not poison subsequent ones.
    std::atomic<int> count{0};
    pool.parallelFor(50, [&](std::size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 50);
}

TEST(Pool, ZeroTasksIsANoOp)
{
    Pool pool(2);
    bool ran = false;
    pool.parallelFor(0, [&](std::size_t) { ran = true; });
    EXPECT_FALSE(ran);
}

TEST(Pool, SetGlobalThreadsReplacesTheGlobalPool)
{
    Pool::setGlobalThreads(3);
    EXPECT_EQ(Pool::global().threads(), 3);
    Pool::setGlobalThreads(1);
    EXPECT_EQ(Pool::global().threads(), 1);
}

/**
 * fatal() raised inside a pool task exits with status 1 whichever
 * thread raises it. On a worker, running static destructors would make
 * the global pool join its own thread; the caller's task blocks so that
 * at two threads the worker is the one to raise it.
 */
TEST(PoolDeath, FatalInsideATaskExitsWithCodeOne)
{
    // A fresh child process: a forked one would inherit the parent's
    // global pool object without its threads.
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    for (const int threads : {1, 2}) {
        EXPECT_EXIT(
            {
                Pool::setGlobalThreads(threads);
                Pool::global().parallelFor(2, [threads](std::size_t) {
                    if (threads > 1 && Pool::currentSlot() == 0)
                        for (;;)
                            std::this_thread::yield();
                    DFAULT_FATAL("task gave up");
                });
            },
            ::testing::ExitedWithCode(1), "task gave up")
            << "threads " << threads;
    }
}

} // namespace
} // namespace dfault::par
