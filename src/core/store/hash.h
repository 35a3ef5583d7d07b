// Content identity of persistent campaign state. Two hashes partition the
// key space:
//
//   * campaign_env_hash — the (network, dataset) environment: network
//     fingerprint (topology + calibration signature) plus every image byte,
//     label, and the class count. Selects the journal file and golden-shard
//     namespace, so state from a different model or dataset is unreachable
//     by construction.
//   * campaign_point_hash — one CampaignPoint's result-determining fields:
//     fault configuration, ConvPolicy, seed, trials. Keys journal cells, so
//     a changed grid re-runs exactly its new/changed points.
//
// Fields that provably cannot change a cell's tallies are excluded from the
// point hash so flipping them never invalidates finished work:
// `reuse_golden` (replay is bit-identical to scratch, proved in
// golden_cache_test) and `max_expected_flips` (resolved before any cell is
// journaled — short-circuited points never reach the journal).
#pragma once

#include <cstdint>

namespace winofault {

struct CampaignPoint;
struct Dataset;
class Network;

// Folded into campaign_env_hash. Bump this when simulator semantics change
// in a way that alters cell results or golden activations WITHOUT changing
// any hashed network/dataset/point content (e.g. a new fault_stream_seed
// derivation or sampling order) — otherwise stores written by the old code
// would replay stale results as if they were current.
inline constexpr std::uint32_t kCampaignSemanticsVersion = 1;

std::uint64_t campaign_point_hash(const CampaignPoint& point);
std::uint64_t campaign_env_hash(const Network& network,
                                const Dataset& dataset);

}  // namespace winofault
