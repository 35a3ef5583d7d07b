// Knobs of distributed campaign execution (see README.md in this
// directory). N worker processes cooperatively execute one CampaignSpec
// against a shared store directory: pending cells are partitioned into
// cost-aware buckets, claimed through atomic claim files with stealing of
// stale claims, and every worker appends finished cells to its own journal
// segment — no cross-process locking on the hot path. The merged result is
// bit-identical to a single-process run because every cell is a pure
// function of (point, image) within one environment.
//
// DistOptions rides inside StoreOptions: distribution only exists over a
// shared store (the store directory IS the coordination medium), so an
// empty store dir — or shard_count <= 1 — runs the ordinary local path.
#pragma once

#include <cstdint>
#include <string>

namespace winofault {

struct DistOptions {
  // This worker's shard identity. shard_count <= 1 disables distribution
  // entirely; otherwise 0 <= shard_index < shard_count.
  int shard_index = 0;
  int shard_count = 0;

  // Unique identity of this worker's journal segment and claim files.
  // Empty => derived from the process id. Two live workers must never
  // share a tag; a crashed worker's abandoned tag is harmless (its segment
  // is still merged, its claims go stale and are stolen).
  std::string worker_tag;

  // A claim whose file has not been freshened for this long is considered
  // abandoned and may be stolen. Workers heartbeat their claim around
  // cell boundaries, so a dead/wedged worker goes stale — and so does a
  // live worker stuck inside ONE cell longer than this window (its bucket
  // is then duplicated by the thief: wasted work, never divergence). Size
  // the window comfortably above the heaviest expected cell.
  std::int64_t claim_stale_ms = 10000;

  // Sleep between polls while waiting for rival workers' claimed buckets.
  std::int64_t poll_ms = 25;

  // True when the worker group shares ONE machine (spawned by the local
  // coordinator): the default thread count divides by shard_count so N
  // workers don't oversubscribe the host N-fold. Hand-started shards on
  // separate machines leave this false and each use their whole host.
  bool share_host = false;

  // Test/CI kill switch: after executing this many cells, the worker
  // SIGKILLs itself (no cleanup, claims left behind) to simulate a crash
  // deterministically. 0 = never.
  std::int64_t die_after_cells = 0;

  bool enabled() const { return shard_count > 1; }
};

}  // namespace winofault
