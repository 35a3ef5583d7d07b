#include "core/energy/voltage_explorer.h"

#include <algorithm>

#include "common/logging.h"

namespace winofault {
namespace {

// One campaign point per voltage: the fault rate is the model's timing-error
// BER at that supply level; everything else is shared.
CampaignPoint voltage_point(const VoltageModel& model, double voltage,
                            ConvPolicy policy, std::uint64_t seed,
                            int trials) {
  CampaignPoint point;
  point.fault.ber = model.ber_at(voltage);
  point.policy = policy;
  point.seed = seed;
  point.trials = trials;
  return point;
}

}  // namespace

VoltageSweepResult accuracy_vs_voltage_multi(
    const CampaignRunner& runner, const VoltageModel& model,
    std::span<const ConvPolicy> policies, std::span<const double> voltages,
    std::uint64_t seed, int threads, int trials, const StoreOptions& store) {
  CampaignSpec spec;
  spec.threads = threads;
  spec.store = store;
  for (const ConvPolicy policy : policies) {
    for (const double v : voltages) {
      spec.points.push_back(voltage_point(model, v, policy, seed, trials));
    }
  }
  const CampaignResult campaign = runner.run(spec);

  VoltageSweepResult result;
  result.stats = campaign.stats;
  result.curves.reserve(policies.size());
  std::size_t next = 0;
  for (std::size_t p = 0; p < policies.size(); ++p) {
    std::vector<VoltagePoint> curve;
    curve.reserve(voltages.size());
    for (const double v : voltages) {
      curve.push_back(VoltagePoint{v, spec.points[next].fault.ber,
                                   campaign.points[next].accuracy});
      ++next;
    }
    result.curves.push_back(std::move(curve));
  }
  return result;
}

VoltageCurve measure_voltage_curve(const CampaignRunner& runner,
                                   const VoltageModel& model,
                                   ConvPolicy policy,
                                   std::span<const double> voltages,
                                   std::uint64_t seed, int threads,
                                   int trials, const StoreOptions& store) {
  // One campaign measures the clean (fault-free) loss reference and the
  // whole decision curve: point 0 is clean, point 1+i is voltage i.
  CampaignSpec spec;
  spec.threads = threads;
  spec.store = store;
  CampaignPoint clean;
  clean.policy = policy;
  clean.seed = seed;
  // Fault-free trials are bit-identical, so one per image suffices
  // regardless of the curve's trial count.
  clean.trials = 1;
  spec.points.push_back(std::move(clean));
  for (const double v : voltages) {
    spec.points.push_back(voltage_point(model, v, policy, seed, trials));
  }
  const CampaignResult campaign = runner.run(spec);

  VoltageCurve curve;
  curve.cells_deferred = campaign.stats.cells_deferred;
  curve.clean_accuracy = campaign.points.front().accuracy;
  curve.points.reserve(voltages.size());
  for (std::size_t i = 0; i < voltages.size(); ++i) {
    curve.points.push_back(VoltagePoint{voltages[i],
                                        spec.points[i + 1].fault.ber,
                                        campaign.points[i + 1].accuracy});
  }
  return curve;
}

std::vector<EnergyPoint> pick_voltages(const Network& network,
                                       const EnergyModel& model,
                                       const ExplorerOptions& options,
                                       const VoltageCurve& curve) {
  const std::vector<ConvDesc> descs = network.conv_descs();

  // Baseline: direct execution at nominal voltage.
  const double base_energy = model.inference_energy_j(
      descs, ConvPolicy::kDirect, model.voltage.v_nom);

  std::vector<EnergyPoint> points;
  points.reserve(options.loss_budgets.size());
  for (const double budget : options.loss_budgets) {
    const double floor = curve.clean_accuracy - budget;
    // Lowest grid voltage whose measured accuracy stays above the floor
    // (grid is descending; stop at the first violation).
    EnergyPoint point;
    point.loss_budget = budget;
    point.chosen_voltage = model.voltage.v_nom;
    point.accuracy = curve.clean_accuracy;
    for (const VoltagePoint& vp : curve.points) {
      if (vp.accuracy + 1e-12 >= floor) {
        if (vp.voltage < point.chosen_voltage) {
          point.chosen_voltage = vp.voltage;
          point.accuracy = vp.accuracy;
        }
      } else {
        break;  // descending grid: deeper scaling only gets worse
      }
    }
    point.energy_norm =
        model.inference_energy_j(descs, options.exec_policy,
                                 point.chosen_voltage) /
        base_energy;
    points.push_back(point);
  }
  return points;
}

std::vector<EnergyPoint> explore_voltage_scaling(
    const CampaignRunner& runner, const EnergyModel& model,
    const ExplorerOptions& options) {
  WF_CHECK(!options.voltage_grid.empty());
  const VoltageCurve curve = measure_voltage_curve(
      runner, model.voltage, options.curve_policy, options.voltage_grid,
      options.seed, options.threads, options.trials, options.store);
  return pick_voltages(runner.network(), model, options, curve);
}

std::vector<double> voltage_grid(double v_hi, double v_lo, int points) {
  WF_CHECK(points >= 2 && v_hi >= v_lo);
  std::vector<double> grid;
  grid.reserve(static_cast<std::size_t>(points));
  const double step = (v_hi - v_lo) / (points - 1);
  for (int i = 0; i < points; ++i) grid.push_back(v_hi - step * i);
  return grid;
}

}  // namespace winofault
