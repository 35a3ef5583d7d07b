#include "core/analysis/network_sweep.h"

#include <cmath>

#include "common/logging.h"

namespace winofault {

CampaignSpec sweep_campaign(std::span<const SweepOptions> options) {
  CampaignSpec spec;
  if (!options.empty()) {
    spec.threads = options.front().threads;
    spec.store = options.front().store;
  }
  for (const SweepOptions& sweep : options) {
    for (const double ber : sweep.bers) {
      CampaignPoint point;
      point.fault.ber = ber;
      point.fault.mode = sweep.mode;
      point.fault.model = sweep.model;
      point.policy = sweep.policy;
      point.seed = sweep.seed;
      point.trials = sweep.trials;
      spec.points.push_back(std::move(point));
    }
  }
  return spec;
}

SweepResult accuracy_sweeps(const CampaignRunner& runner,
                            std::span<const SweepOptions> options) {
  const CampaignResult result = runner.run(sweep_campaign(options));
  SweepResult sweeps;
  sweeps.stats = result.stats;
  sweeps.curves.reserve(options.size());
  std::size_t next = 0;
  for (const SweepOptions& sweep : options) {
    std::vector<SweepPoint> curve;
    curve.reserve(sweep.bers.size());
    for (const double ber : sweep.bers) {
      const EvalResult& eval = result.points[next++];
      curve.push_back(SweepPoint{ber, eval.accuracy, eval.avg_flips});
    }
    sweeps.curves.push_back(std::move(curve));
  }
  return sweeps;
}

std::vector<SweepPoint> accuracy_sweep(const CampaignRunner& runner,
                                       const SweepOptions& options) {
  return accuracy_sweeps(runner, std::span(&options, 1)).curves.front();
}

std::vector<double> log_ber_grid(double lo, double hi, int points) {
  WF_CHECK(lo > 0.0 && hi >= lo && points >= 2);
  std::vector<double> grid;
  grid.reserve(static_cast<std::size_t>(points));
  const double step = std::log10(hi / lo) / (points - 1);
  for (int i = 0; i < points; ++i) {
    grid.push_back(lo * std::pow(10.0, step * i));
  }
  return grid;
}

}  // namespace winofault
