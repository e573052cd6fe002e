/**
 * @file
 * Shared helpers for the paper-reproduction benchmark binaries.
 *
 * Every bench binary regenerates one table or figure of the paper on
 * the full-scale simulated platform (16 MiB footprint, default caches)
 * and is `core::RunSession(argc, argv).run(body)`. Command-line
 * "key=value" overrides allow reduced runs:
 *   footprint_mib=8 work_scale=0.5 epochs=60 repeats=5
 *
 * Every key the session reads (telemetry, parallelism, robustness) is
 * listed in one table: docs/observability.md "Surfaces".
 */

#ifndef DFAULT_BENCH_HARNESS_HH
#define DFAULT_BENCH_HARNESS_HH

#include <cstdio>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/logging.hh"
#include "core/characterization.hh"
#include "core/dataset_builder.hh"
#include "core/error_model.hh"
#include "core/report.hh"
#include "core/run_session.hh"
#include "core/trainer.hh"
#include "obs/stats.hh"
#include "sys/platform.hh"
#include "workloads/registry.hh"

namespace dfault::bench {

/** Print a horizontal rule sized to the preceding header. */
inline void
rule(int width = 78)
{
    for (int i = 0; i < width; ++i)
        std::putchar('-');
    std::putchar('\n');
}

/** Section banner naming the paper artifact being regenerated. */
inline void
banner(const std::string &artifact, const std::string &description)
{
    rule();
    std::printf("%s  --  %s\n", artifact.c_str(), description.c_str());
    rule();
}

} // namespace dfault::bench

#endif // DFAULT_BENCH_HARNESS_HH
