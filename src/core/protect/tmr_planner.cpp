#include "core/protect/tmr_planner.h"

#include <algorithm>

#include "common/logging.h"
#include "core/campaign/campaign.h"

namespace winofault {
namespace {

// The planner is sequential-adaptive (each iteration's protection depends
// on the previous accuracy check), so every check is a single-point
// campaign. All checks flow through the caller's CampaignRunner: it keeps
// its goldens between checks, so each image's golden is built once for
// every check and every plan on that runner; the environment hash is
// computed once; and with a store attached the runner keeps its journal
// and golden store open between checks instead of re-reading them — warm
// resumes are O(1) per call.
double evaluate_with_protection(
    const CampaignRunner& runner, CampaignPoint point,
    const std::unordered_map<int, ProtectionSet>& protection,
    const StoreOptions& store) {
  point.fault.protection = protection;
  CampaignSpec spec;
  spec.points.push_back(std::move(point));
  spec.store = store;
  return runner.run(spec).points.front().accuracy;
}

}  // namespace

std::vector<int> vulnerability_order(const LayerwiseResult& analysis) {
  std::vector<int> order(analysis.layers.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return analysis.layers[static_cast<std::size_t>(a)].vulnerability >
           analysis.layers[static_cast<std::size_t>(b)].vulnerability;
  });
  return order;
}

TmrPlan plan_tmr(const CampaignRunner& runner,
                 const TmrPlanOptions& options_in) {
  // A budget-truncated campaign reports PARTIAL tallies; in this
  // sequential-adaptive loop a biased-low accuracy check would steer the
  // plan itself (protecting until exhaustion), not just under-report a
  // point. The planner therefore ignores cell_budget — its checks still
  // journal, so a killed sweep resumes at cell granularity regardless.
  TmrPlanOptions options = options_in;
  options.store.cell_budget = 0;
  TmrPlan plan;

  // 1. Layer-wise vulnerability ranking under the analysis engine.
  std::vector<int> order;
  if (options.layer_order != nullptr) {
    order = *options.layer_order;
  } else {
    CampaignPoint unprotected = options.check;
    unprotected.fault.protection.clear();
    order = vulnerability_order(
        layer_vulnerability(runner, unprotected, options.store));
  }

  if (options.initial_protection != nullptr) {
    plan.protection = *options.initial_protection;
  }

  // 2. Iterative protection: muls of the most vulnerable layers first,
  // then adds, a `step_fraction` slice per iteration.
  double accuracy = evaluate_with_protection(runner, options.check,
                                             plan.protection, options.store);
  if (accuracy >= options.accuracy_goal) {
    plan.achieved_accuracy = accuracy;
    plan.goal_met = true;
    return plan;
  }
  // Protection passes: (kind, layer in vulnerability order).
  for (const OpKind kind : {OpKind::kMul, OpKind::kAdd}) {
    for (const int layer : order) {
      while (plan.iterations < options.max_iterations) {
        ProtectionSet& set = plan.protection[layer];  // default-constructed
        const double current = kind == OpKind::kMul ? set.mul_fraction()
                                                    : set.add_fraction();
        if (current >= 1.0) break;  // layer kind fully protected
        const double next = std::min(1.0, current + options.step_fraction);
        if (kind == OpKind::kMul) {
          set.set_mul_fraction(next);
        } else {
          set.set_add_fraction(next);
        }
        ++plan.iterations;
        accuracy = evaluate_with_protection(runner, options.check,
                                            plan.protection, options.store);
        if (accuracy >= options.accuracy_goal) {
          plan.achieved_accuracy = accuracy;
          plan.goal_met = true;
          return plan;
        }
      }
      if (plan.iterations >= options.max_iterations) break;
    }
    if (plan.iterations >= options.max_iterations) break;
  }
  plan.achieved_accuracy = accuracy;
  plan.goal_met = accuracy >= options.accuracy_goal;
  return plan;
}

double plan_overhead_ops(const Network& network, const TmrPlan& plan,
                         ConvPolicy policy) {
  double overhead = 0.0;
  for (const auto& [layer, set] : plan.protection) {
    const OpSpace space = network.protectable_op_space(layer, policy);
    overhead += set.overhead(space);
  }
  return overhead;
}

double full_tmr_ops(const Network& network, ConvPolicy policy) {
  const OpSpace space = network.total_op_space(policy);
  return 2.0 * static_cast<double>(space.total_ops());
}

double plan_accuracy(const CampaignRunner& runner, const TmrPlan& plan,
                     const CampaignPoint& point) {
  return evaluate_with_protection(runner, point, plan.protection, {});
}

}  // namespace winofault
