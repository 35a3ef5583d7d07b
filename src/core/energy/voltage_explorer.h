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
// Each decision curve is the clean reference plus accuracy along the
// voltage grid. One campaign measures the curves of every policy a figure
// needs, on the caller's runner, whose goldens serve every call on it: one
// golden build per image for all of them. Selecting a voltage per budget
// is then pure accounting over a measured curve, so configurations that
// share a curve (ST-Conv and WG-Conv-W/O-AFT both decide on the direct
// one) measure it once.
#pragma once

#include <span>
#include <vector>

#include "accel/energy_model.h"
#include "core/campaign/campaign.h"

namespace winofault {

struct VoltagePoint {
  double voltage = 0.0;
  double ber = 0.0;
  double accuracy = 0.0;
};

// A measured decision curve: the clean (fault-free) loss reference plus
// accuracy along the voltage grid.
struct VoltageCurve {
  double clean_accuracy = 0.0;
  std::vector<VoltagePoint> points;  // along the grid, in grid order
};

// Curves of a multi-policy voltage campaign plus the stats they were
// measured under — stats.cells_deferred != 0 flags PARTIAL curves from a
// budgeted run: mark downstream output and fail the exit code instead of
// presenting them as finished (same contract as SweepResult).
struct VoltageSweepResult {
  std::vector<VoltageCurve> curves;  // one per policy, in order
  CampaignStats stats;
};

// Measures one curve per policy as a SINGLE campaign, so the whole (image
// x policy x voltage) grid feeds the pool at once. Per policy the campaign
// holds a copy of `base` for the clean reference (BER 0, one trial: its
// fault-free trials are bit-identical) and one copy per voltage at
// `model.ber_at(v)`. The function owns policy, fault.ber and the clean
// point's trials; everything else — seed, trials, fault model — is the
// caller's.
VoltageSweepResult measure_voltage_curves(const CampaignRunner& runner,
                                          const VoltageModel& model,
                                          const CampaignPoint& base,
                                          std::span<const ConvPolicy> policies,
                                          std::span<const double> voltages,
                                          const StoreOptions& store = {});

struct EnergyPoint {
  double loss_budget = 0.0;      // allowed accuracy drop (absolute)
  double chosen_voltage = 0.0;   // lowest safe voltage
  double accuracy = 0.0;         // measured at the chosen voltage
  double energy_norm = 0.0;      // vs ST-Conv at nominal voltage
};

// Budget search over a measured curve (descending grid): per loss budget
// (e.g. {0.01, 0.03, 0.05, 0.10}) the lowest voltage whose accuracy stays
// within the budget, and the energy of executing under `exec_policy` there.
// Pure selection + energy accounting, no evaluation.
std::vector<EnergyPoint> pick_voltages(const Network& network,
                                       const EnergyModel& model,
                                       std::span<const double> loss_budgets,
                                       ConvPolicy exec_policy,
                                       const VoltageCurve& curve);

// Uniform descending voltage grid [v_hi, v_lo] with `points` entries.
std::vector<double> voltage_grid(double v_hi, double v_lo, int points);

}  // namespace winofault
