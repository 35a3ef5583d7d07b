// Tier-2 disk backing for campaign golden activations. A stored run's
// GoldenLru::get_or_build (core/campaign) saves every golden the run uses
// here as a per-image shard file, which serves every ConvPolicy, when the
// run first uses it, and restores shards on a miss instead of rebuilding —
// on paper-scale datasets a golden forward costs orders of magnitude more
// than reading its activations back.
//
// Every shard carries a checksummed header binding it to one campaign
// environment (campaign_env_hash): a header mismatch, size mismatch, or
// payload CRC failure rejects the shard (it is deleted so the entry
// rebuilds cleanly) — a corrupt or stale shard can never flow into a
// campaign. Restored entries are byte-exact (integer tensors plus
// bit-pattern doubles), so disk-backed campaigns are bit-identical to
// in-RAM runs (proved in tests/store_test.cpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "nn/golden_cache.h"

namespace winofault {

// Byte-exact (de)serialization of a GoldenCache (friend access to its
// internals). encode/decode round-trip exactly; decode returns nullopt on
// any framing violation.
class GoldenCodec {
 public:
  static std::string encode(const GoldenCache& golden);
  static std::optional<GoldenCache> decode(const std::string& payload);
};

class GoldenStore {
 public:
  // Shards live directly under `dir`, namespaced by `env_hash`. All
  // existing shards in the directory — every environment's — are indexed
  // oldest-first, so the byte budget bounds the directory as a whole
  // across runs and reclaims shards orphaned by network/dataset changes.
  GoldenStore(std::string dir, std::uint64_t env_hash,
              std::uint64_t byte_budget);

  // Serializes `golden` to its shard file unless one already exists (shard
  // content is deterministic) or the budget cannot fit it; oldest shards
  // are dropped to make room, and a dropped shard is written again the
  // next time a stored run uses its golden. Called on every golden
  // GoldenLru::get_or_build returns, so the exists check comes first.
  // Returns true when this call wrote the shard, false when it existed,
  // another caller was writing it, or the spill failed or did not fit.
  // Thread-safe and never throws — a failed spill degrades to a warning
  // and a later rebuild. `variant` is the FaultOverlay digest for
  // permanent-fault golden variants; 0 (clean silicon) keeps the exact
  // pre-variant shard name and header, so stores written before the
  // fault-model registry stay readable.
  bool save(std::int64_t image, const GoldenCache& golden,
            std::uint64_t variant = 0) noexcept;

  // Restores the (image[, variant]) shard; nullopt when absent or rejected
  // (rejected shards are quarantined as *.quarantine — deleted only if the
  // rename fails — so the caller's rebuild self-heals).
  std::optional<GoldenCache> load(std::int64_t image,
                                  std::uint64_t variant = 0);

  // Names keep the direct policy's "_0" suffix from when shards were
  // per-policy, so a store written then keeps serving its direct shards.
  std::string shard_path(std::int64_t image, std::uint64_t variant = 0) const;

  std::int64_t quarantines() const { return quarantines_.load(); }
  std::int64_t budget_evictions() const { return budget_evictions_.load(); }
  std::uint64_t bytes_on_disk() const { return bytes_.load(); }

  // True once an ENOSPC turned the spill tier off for this store's
  // lifetime (campaign continues, evicted goldens rebuild on miss).
  bool spill_disabled() const { return spill_disabled_.load(); }

 private:
  struct ShardRef {
    std::string path;
    std::uint64_t bytes = 0;
  };

  bool save_impl(std::int64_t image, const GoldenCache& golden,
                 std::uint64_t variant);
  // Turns the spill tier off permanently (idempotent; warns once).
  void disable_spills(const char* why);

  std::string dir_;
  std::uint64_t env_hash_;
  std::uint64_t byte_budget_;
  std::mutex mu_;                // guards index_ and budget transitions
  std::vector<ShardRef> index_;  // oldest first
  std::unordered_set<std::string> in_flight_;  // saves between lock regions
  std::atomic<std::uint64_t> bytes_{0};  // atomic: read by stats getters
  std::atomic<std::int64_t> quarantines_{0};
  std::atomic<std::int64_t> budget_evictions_{0};
  std::atomic<bool> spill_disabled_{false};
};

}  // namespace winofault
