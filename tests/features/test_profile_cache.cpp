/**
 * @file
 * ProfileCache under concurrent access from pool workers: one
 * extraction per key regardless of how many workers race for it, entry
 * pointers that stay valid as the cache grows, and a key that tells
 * apart platforms differing in any one profiling input.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "features/extractor.hh"
#include "obs/stats.hh"
#include "par/pool.hh"

namespace dfault::features {
namespace {

workloads::Workload::Params
smallParams()
{
    workloads::Workload::Params p;
    p.footprintBytes = 1 << 20;
    p.workScale = 0.25;
    return p;
}

TEST(ProfileCache, ConcurrentSameKeyExtractsOnce)
{
    ProfileCache::instance().clear();

    // One platform per execution slot: extraction mutates the platform
    // it profiles on, so concurrent callers must not share one.
    par::Pool pool(8);
    std::vector<sys::Platform> platforms(
        static_cast<std::size_t>(pool.slots()));

    auto &runs = obs::Registry::instance().counter(
        "profile.runs", "workload profiling runs");
    const std::uint64_t before = runs.value();

    const workloads::WorkloadConfig config{"random", 8, "random"};
    std::vector<const WorkloadProfile *> seen(16, nullptr);
    pool.parallelFor(seen.size(), [&](std::size_t i) {
        auto &platform =
            platforms[static_cast<std::size_t>(par::Pool::currentSlot())];
        seen[i] = &ProfileCache::instance().get(platform, config,
                                                smallParams());
    });

    // Every caller saw the same heap entry, computed exactly once.
    for (const auto *profile : seen) {
        ASSERT_NE(profile, nullptr);
        EXPECT_EQ(profile, seen[0]);
    }
    EXPECT_EQ(runs.value(), before + 1);
    EXPECT_EQ(seen[0]->label, "random");
}

TEST(ProfileCache, EntryPointersSurviveLaterInsertions)
{
    ProfileCache::instance().clear();
    sys::Platform platform;

    const workloads::WorkloadConfig first{"random", 8, "random"};
    const WorkloadProfile *pinned =
        &ProfileCache::instance().get(platform, first, smallParams());

    // Grow the cache past its first allocation with distinct keys.
    for (const int threads : {1, 2, 3, 4}) {
        const workloads::WorkloadConfig other{
            "random", threads, "random" + std::to_string(threads)};
        ProfileCache::instance().get(platform, other, smallParams());
    }

    const WorkloadProfile *again =
        &ProfileCache::instance().get(platform, first, smallParams());
    EXPECT_EQ(again, pinned);
    EXPECT_EQ(pinned->threads, 8);
}

TEST(ProfileCache, KeyCoversCacheWaysAndCoreCount)
{
    ProfileCache::instance().clear();
    const workloads::WorkloadConfig config{"srad", 8, "srad(par)"};
    const auto profileOn = [&](const sys::Platform::Params &params) {
        sys::Platform platform(params);
        return &ProfileCache::instance().get(platform, config,
                                             smallParams());
    };

    const sys::Platform::Params base;
    const WorkloadProfile *baseline = profileOn(base);
    EXPECT_EQ(profileOn(base), baseline);

    // Only the L2 associativity differs: a profile of its own, with
    // the L2 behaviour that associativity produces.
    sys::Platform::Params ways = base;
    ways.hierarchy.l2.ways = 2;
    const WorkloadProfile *lowWays = profileOn(ways);
    EXPECT_NE(lowWays, baseline);
    EXPECT_NE(lowWays->features.get("l2_miss_ratio"),
              baseline->features.get("l2_miss_ratio"));

    // Only the core count differs: eight threads now share two L1s, so
    // core 2's L1 sees no accesses.
    sys::Platform::Params cores = base;
    cores.hierarchy.cores = 2;
    const WorkloadProfile *fewCores = profileOn(cores);
    EXPECT_NE(fewCores, baseline);
    EXPECT_GT(baseline->features.get("core2_l1_accesses_per_kc"), 0.0);
    EXPECT_EQ(fewCores->features.get("core2_l1_accesses_per_kc"), 0.0);
}

} // namespace
} // namespace dfault::features
