/**
 * @file
 * Sweep checkpoint: the cell record schema.
 *
 * A characterization sweep with a checkpoint directory records every
 * completed (workload, operating point) cell as one obs::RecordStore
 * record (`cell-NNNNNN.json`), so a campaign killed at any instant
 * leaves only complete cells behind. On resume the valid cells are
 * skipped and their *deferred stat ops* (obs/deferral.hh) replayed in
 * cell order — the resumed run reaches a stats digest bit-identical
 * to an uninterrupted one.
 *
 * Cells are independent, so the loader's policy is per cell: an
 * invalid one is quarantined by the store and re-measured; the rest
 * still restore. The config digest (sweepConfigDigest()) covers every
 * campaign parameter that defines the results and deliberately
 * excludes the thread count and resilience knobs: a sweep may be
 * resumed with a different DFAULT_THREADS and still verify.
 */

#ifndef DFAULT_CORE_CHECKPOINT_HH
#define DFAULT_CORE_CHECKPOINT_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/characterization.hh"
#include "obs/deferral.hh"
#include "obs/record_store.hh"

namespace dfault::core {

/** Hash of every campaign parameter that determines sweep results. */
std::uint64_t
sweepConfigDigest(const CharacterizationCampaign::Params &params,
                  const std::vector<workloads::WorkloadConfig> &suite,
                  const std::vector<dram::OperatingPoint> &points);

/** One journaled sweep cell: the measurement plus its stat mutations. */
struct CheckpointCell
{
    std::size_t cell = 0; ///< index into the suite x points grid
    Measurement measurement; ///< profile pointer not persisted
    std::vector<obs::StatOp> statOps;
};

/** Cell records: `cell-NNNNNN.json`, N the cell index. */
inline constexpr obs::RecordKind kCheckpointCell{"cell", 6, "cell",
                                                 "cell"};

/** Serialize a cell (stamped with the sweep digest) as one record. */
std::string checkpointCellJson(const CheckpointCell &cell,
                               std::uint64_t digest);

/**
 * Parse a checkpointCellJson() document. Returns false and sets
 * @p error when the document is malformed, has the wrong version or
 * kind, or carries a digest other than @p digest.
 */
bool checkpointCellFromJson(const std::string &text, std::uint64_t digest,
                            CheckpointCell &out, std::string *error);

/**
 * Every valid cell in @p store with index < @p totalCells (none when
 * the store is not open). Invalid cells are quarantined, to be
 * re-measured; valid out-of-range ones are warned about and skipped.
 */
std::map<std::size_t, CheckpointCell>
loadCheckpointCells(const obs::RecordStore &store, std::size_t totalCells);

} // namespace dfault::core

#endif // DFAULT_CORE_CHECKPOINT_HH
