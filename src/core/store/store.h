// Knobs of the persistent campaign store (see README.md in this
// directory). A CampaignSpec carries a StoreOptions; an empty `dir`
// disables persistence entirely and the campaign runs purely in RAM, as
// before. With a directory set, the runner keeps two cooperating tiers
// under it:
//
//   * a result journal (journal.h): finished (point, image) cells are
//     appended as they complete, so a killed campaign resumes with only
//     unfinished cells re-executed, and an unchanged spec returns its
//     results without executing anything;
//   * a golden tier-2 store (golden_store.h): every GoldenCache the run
//     uses is saved to a checksummed shard file when first used, and a
//     miss restores it instead of rebuilding.
//
// Both tiers are keyed by content hashes (hash.h), so a changed network,
// dataset, or point configuration can never be served stale state.
#pragma once

#include <cstdint>
#include <string>

#include "core/dist/dist.h"

namespace winofault {

struct StoreOptions {
  // Store directory; empty => persistence disabled (pure in-RAM campaign).
  std::string dir;

  // Result journal: checkpoint finished cells + resume / incremental
  // regeneration.
  bool journal = true;

  // Golden tier-2: save every golden the run uses to a disk shard when
  // the run first uses it, and restore shards on a GoldenLru miss instead
  // of rebuilding.
  bool spill_goldens = true;

  // Byte budget for golden shards on disk; oldest shards are dropped when
  // a spill would exceed it.
  std::uint64_t golden_disk_budget = 1ULL << 30;  // 1 GiB

  // Execute at most this many pending (point, image) cells this run, then
  // stop (remaining cells are deferred to the next resume). 0 = unlimited.
  // A budgeted run reports partial tallies for unfinished points — this is
  // a checkpointing / CI-smoke knob, not a sampling mode.
  std::int64_t cell_budget = 0;

  // Distributed execution over this store directory (core/dist): when
  // dist.shard_count > 1, this process is worker dist.shard_index of a
  // cooperating group that shares `dir`. Requires the journal; ignored
  // when the store is disabled.
  DistOptions dist;

  bool enabled() const { return !dir.empty(); }
};

}  // namespace winofault
