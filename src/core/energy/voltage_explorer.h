// Voltage-scaling energy explorer (paper Sec 4.2, Figs 6 and 7).
//
// For each accuracy-loss budget it finds the lowest safe supply voltage —
// the lowest V whose timing-error BER the network still tolerates — and
// reports normalized energy. The three configurations mirror the paper:
//   ST-Conv:         decisions and execution on direct convolution.
//   WG-Conv-W/O-AFT: executes Winograd (shorter runtime) but, unaware of
//                    Winograd's fault tolerance, selects the voltage using
//                    the *direct* accuracy/BER curve (conservative).
//   WG-Conv-W/AFT:   selects the voltage with Winograd's own curve —
//                    scaling deeper for extra savings.
// Energy is normalized to direct-conv execution at nominal voltage.
//
// The accuracy measurements (the clean reference plus the whole decision
// curve) form one campaign, so an exploration is a thin CampaignSpec
// builder run on the caller's runner, whose goldens serve every call on
// it: one golden build per image for all of them.
#pragma once

#include <vector>

#include "accel/energy_model.h"
#include "core/campaign/campaign.h"

namespace winofault {

struct VoltagePoint {
  double voltage = 0.0;
  double ber = 0.0;
  double accuracy = 0.0;
};

// Curves of a multi-policy voltage campaign plus the stats they were
// measured under — stats.cells_deferred != 0 flags PARTIAL curves from a
// budgeted run (same contract as SweepResult).
struct VoltageSweepResult {
  std::vector<std::vector<VoltagePoint>> curves;  // one per policy
  CampaignStats stats;
};

// Accuracy along a voltage grid (Fig 6 curves) for several policies as a
// SINGLE campaign (fig6's ST/WG pair): the whole (image x policy x
// voltage) grid feeds the pool at once. Returns one curve per policy, in
// order.
VoltageSweepResult accuracy_vs_voltage_multi(
    const CampaignRunner& runner, const VoltageModel& model,
    std::span<const ConvPolicy> policies, std::span<const double> voltages,
    std::uint64_t seed, int threads = 0, int trials = 1,
    const StoreOptions& store = {});

struct EnergyPoint {
  double loss_budget = 0.0;      // allowed accuracy drop (absolute)
  double chosen_voltage = 0.0;   // lowest safe voltage
  double accuracy = 0.0;         // measured at the chosen voltage
  double energy_norm = 0.0;      // vs ST-Conv at nominal voltage
};

struct ExplorerOptions {
  std::vector<double> loss_budgets;   // e.g. {0.01, 0.03, 0.05, 0.10}
  std::vector<double> voltage_grid;   // descending search grid
  ConvPolicy exec_policy = ConvPolicy::kDirect;    // runtime/energy engine
  ConvPolicy curve_policy = ConvPolicy::kDirect;   // accuracy-curve engine
  std::uint64_t seed = 1;
  int threads = 0;
  int trials = 1;  // injection trials per (image, voltage) point
  StoreOptions store;  // persistent campaign store (campaign-level)
};

// A measured decision curve: the clean (fault-free) loss reference plus
// accuracy along the voltage grid, all from one campaign. Measuring it
// once and reusing it across configurations that share a curve_policy
// (fig7: ST-Conv and WG-Conv-W/O-AFT both decide on the direct curve)
// halves the evaluation work.
struct VoltageCurve {
  double clean_accuracy = 0.0;
  std::vector<VoltagePoint> points;  // along the decision grid, descending
  // Non-zero when a budgeted (cell_budget) run deferred cells: the curve
  // is PARTIAL — mark downstream output and fail the exit code instead of
  // presenting it as finished.
  std::int64_t cells_deferred = 0;
};

VoltageCurve measure_voltage_curve(const CampaignRunner& runner,
                                   const VoltageModel& model,
                                   ConvPolicy policy,
                                   std::span<const double> voltages,
                                   std::uint64_t seed, int threads = 0,
                                   int trials = 1,
                                   const StoreOptions& store = {});

// Budget search over a pre-measured curve: pure selection + energy
// accounting, no evaluation.
std::vector<EnergyPoint> pick_voltages(const Network& network,
                                       const EnergyModel& model,
                                       const ExplorerOptions& options,
                                       const VoltageCurve& curve);

// measure_voltage_curve + pick_voltages in one call.
std::vector<EnergyPoint> explore_voltage_scaling(
    const CampaignRunner& runner, const EnergyModel& model,
    const ExplorerOptions& options);

// Uniform descending voltage grid [v_hi, v_lo] with `points` entries.
std::vector<double> voltage_grid(double v_hi, double v_lo, int points);

}  // namespace winofault
