#include "core/energy/voltage_explorer.h"

#include "common/logging.h"

namespace winofault {

VoltageSweepResult measure_voltage_curves(const CampaignRunner& runner,
                                          const VoltageModel& model,
                                          const CampaignPoint& base,
                                          std::span<const ConvPolicy> policies,
                                          std::span<const double> voltages,
                                          const StoreOptions& store) {
  // Per policy: the clean point, then one point per voltage.
  CampaignSpec spec;
  spec.store = store;
  for (const ConvPolicy policy : policies) {
    CampaignPoint point = base;
    point.policy = policy;
    point.fault.ber = 0.0;
    point.trials = 1;
    spec.points.push_back(point);
    point.trials = base.trials;
    for (const double v : voltages) {
      point.fault.ber = model.ber_at(v);
      spec.points.push_back(point);
    }
  }
  const CampaignResult campaign = runner.run(spec);

  VoltageSweepResult result;
  result.stats = campaign.stats;
  result.curves.reserve(policies.size());
  std::size_t next = 0;
  for (std::size_t p = 0; p < policies.size(); ++p) {
    VoltageCurve curve;
    curve.clean_accuracy = campaign.points[next++].accuracy;
    curve.points.reserve(voltages.size());
    for (const double v : voltages) {
      curve.points.push_back(VoltagePoint{v, spec.points[next].fault.ber,
                                          campaign.points[next].accuracy});
      ++next;
    }
    result.curves.push_back(std::move(curve));
  }
  return result;
}

std::vector<EnergyPoint> pick_voltages(const Network& network,
                                       const EnergyModel& model,
                                       std::span<const double> loss_budgets,
                                       ConvPolicy exec_policy,
                                       const VoltageCurve& curve) {
  const std::vector<ConvDesc> descs = network.conv_descs();

  // Baseline: direct execution at nominal voltage.
  const double base_energy = model.inference_energy_j(
      descs, ConvPolicy::kDirect, model.voltage.v_nom);

  std::vector<EnergyPoint> points;
  points.reserve(loss_budgets.size());
  for (const double budget : loss_budgets) {
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
        model.inference_energy_j(descs, exec_policy, point.chosen_voltage) /
        base_energy;
    points.push_back(point);
  }
  return points;
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
