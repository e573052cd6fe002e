/**
 * @file
 * The profiling phase: run a workload under instrumentation and distill
 * its WorkloadProfile (paper Fig 3, left column).
 */

#ifndef DFAULT_FEATURES_EXTRACTOR_HH
#define DFAULT_FEATURES_EXTRACTOR_HH

#include <map>
#include <memory>
#include <mutex>

#include "features/profile.hh"
#include "sys/platform.hh"
#include "workloads/registry.hh"

namespace dfault::features {

/**
 * Execute @p config's kernel on @p platform with reuse-distance and
 * entropy instrumentation attached, then assemble the full profile:
 * all 249 program features plus the per-row DRAM activity statistics.
 *
 * The platform's caches and counters are reset before the run.
 */
WorkloadProfile extractProfile(sys::Platform &platform,
                               const workloads::WorkloadConfig &config,
                               const workloads::Workload::Params &wparams);

/**
 * Process-wide profile memoization keyed by a digest of the workload
 * config and parameters and every platform parameter profiling reads
 * (get() lists them): campaigns and benchmark drivers
 * re-profile the same suite many times; the profile is deterministic so
 * caching is exact.
 *
 * The cache is safe for concurrent use from par::Pool workers. Each key
 * is computed exactly once, even under a concurrent first request from
 * many workers (the losers block until the winner's extraction
 * finishes), and entries live on the heap, so the returned references —
 * and any WorkloadProfile pointers taken from them — stay valid across
 * later insertions. clear() still invalidates everything.
 */
class ProfileCache
{
  public:
    static ProfileCache &instance();

    /**
     * Get or compute the profile for @p config on @p platform. The
     * extraction runs on the caller's platform; concurrent callers must
     * pass distinct Platform instances (pool workers use per-slot
     * replicas).
     */
    const WorkloadProfile &
    get(sys::Platform &platform, const workloads::WorkloadConfig &config,
        const workloads::Workload::Params &wparams);

    /** Drop all cached profiles (invalidates outstanding pointers). */
    void clear();

  private:
    struct Entry
    {
        std::once_flag once;
        WorkloadProfile profile;
    };

    ProfileCache() = default;

    std::mutex mutex_; ///< guards entries_ (the map, not the profiles)
    /** Keyed by a digest of every profiling input (see get()). */
    std::map<std::uint64_t, std::shared_ptr<Entry>> entries_;
};

} // namespace dfault::features

#endif // DFAULT_FEATURES_EXTRACTOR_HH
