// Network-wise fault-tolerance evaluation (paper Sec 3.2.2, Figs 1 and 2):
// accuracy of a network across a bit-error-rate sweep under a given conv
// policy and injection mode. A sweep is a thin CampaignSpec builder: all
// BER points (and, with accuracy_sweeps, all policy/mode configurations)
// run as one campaign on the caller's runner, sharing one set of golden
// activations per image with every other call on that runner. Its axis is
// fault.ber, one point per entry of `bers`. Unlike the other figure
// builders, which take a base CampaignPoint, a sweep takes the point's
// other fields flat in SweepOptions (plus the campaign's `threads`): the
// repository benchmark builds its campaigns through it.
#pragma once

#include <span>
#include <vector>

#include "core/campaign/campaign.h"

namespace winofault {

struct SweepPoint {
  double ber = 0.0;
  double accuracy = 0.0;
  double avg_flips = 0.0;
};

struct SweepOptions {
  std::vector<double> bers;
  ConvPolicy policy = ConvPolicy::kDirect;
  InjectionMode mode = InjectionMode::kOpLevel;
  // Fault model to sweep (fault/models): defaults to WINOFAULT_FAULT_MODEL
  // when set, else the builtin flip@op.
  FaultModelSpec model = FaultModelSpec::process_default();
  std::uint64_t seed = 1;
  int threads = 0;
  int trials = 1;  // injection trials per (image, BER) point
  // Persistent campaign store; campaign-level like `threads` (the merged
  // campaign takes it from the first configuration).
  StoreOptions store;
};

std::vector<SweepPoint> accuracy_sweep(const CampaignRunner& runner,
                                       const SweepOptions& options);

// Curves of a multi-configuration sweep plus the campaign stats they were
// measured under. stats.cells_deferred != 0 flags PARTIAL curves from a
// budgeted (cell_budget) run — consumers must mark their output and fail
// their exit code instead of presenting the numbers as finished.
struct SweepResult {
  std::vector<std::vector<SweepPoint>> curves;  // parallel to options
  CampaignStats stats;
};

// Several sweep configurations over one (network, dataset) executed as a
// single campaign — e.g. Fig 1's four (policy, mode) curves or Fig 2's
// ST/WG pair. Goldens are shared across every configuration with the same
// policy, and the whole grid feeds the pool at once. Campaign-level knobs
// (threads) come from the first configuration.
SweepResult accuracy_sweeps(const CampaignRunner& runner,
                            std::span<const SweepOptions> options);

// The CampaignSpec a set of sweep configurations expands to (points ordered
// configuration-major, then BER) — exposed for callers that want to merge
// sweeps into a larger campaign.
CampaignSpec sweep_campaign(std::span<const SweepOptions> options);

// Log-spaced BER grid [lo, hi] with `points` entries (both ends included).
std::vector<double> log_ber_grid(double lo, double hi, int points);

}  // namespace winofault
