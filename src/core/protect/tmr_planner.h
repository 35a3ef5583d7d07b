// Fine-grained TMR protection planner (paper Sec 4.1, Fig 5).
//
// Strategy (directly from the paper): rank layers by their layer-wise
// vulnerability factor; protect a fraction of the most vulnerable layer's
// operations per iteration — multiplications first (they dominate the
// vulnerability, Sec 3.2.4), randomly selected so the scheme maps onto any
// compute engine — and stop as soon as the accuracy goal is met.
//
// Three planner configurations reproduce the paper's comparison:
//   ST-Conv:        analysis + execution + accounting on direct conv.
//   WG-Conv-W/O-AFT: the *ST plan* (per-layer protected fractions decided
//                    against direct-conv fault behavior) applied to
//                    Winograd execution — unaware of Winograd's inherent
//                    fault tolerance, it over-protects.
//   WG-Conv-W/AFT:  analysis + execution + accounting on Winograd.
#pragma once

#include <unordered_map>

#include "core/analysis/layer_vulnerability.h"

namespace winofault {

struct TmrPlanOptions {
  // The point every accuracy check runs: BER, fault model, seed, trials,
  // and the policy whose fault behavior drives decisions (vulnerability
  // analysis and accuracy checks) — ST for the W/O-AFT configuration. The
  // planner owns fault.protection: each check runs a copy with the plan's
  // protection so far, and its own ranking a copy with none.
  CampaignPoint check;
  double accuracy_goal = 0.0;
  double step_fraction = 0.10;  // ops protected per planner iteration
  int max_iterations = 600;
  // Optional precomputed vulnerability ranking (most vulnerable first);
  // when null the planner runs layer_vulnerability itself. Sharing one
  // ranking across accuracy goals matches the paper's protocol (the
  // vulnerability factors are measured once per configuration).
  const std::vector<int>* layer_order = nullptr;
  // Optional warm start: protection already planned for a lower accuracy
  // goal. Protection sets grow monotonically with the goal, so ascending
  // goal sweeps (Fig 5) resume instead of replanning from scratch.
  const std::unordered_map<int, ProtectionSet>* initial_protection = nullptr;
  // Persistent campaign store: every accuracy check journals its cells, so
  // a killed planning sweep resumes its already-checked iterations.
  StoreOptions store;
};

// Vulnerability ranking helper (most vulnerable first) for reuse across
// planner invocations.
std::vector<int> vulnerability_order(const LayerwiseResult& analysis);

struct TmrPlan {
  std::unordered_map<int, ProtectionSet> protection;  // by layer ordinal
  double achieved_accuracy = 0.0;  // under the analysis policy
  int iterations = 0;
  bool goal_met = false;
};

// Every vulnerability analysis and accuracy check runs on the caller's
// runner, so the goldens it holds serve the whole plan, and a caller that
// plans several goals or policies on one runner builds each golden once.
TmrPlan plan_tmr(const CampaignRunner& runner, const TmrPlanOptions& options);

// Extra operations the plan costs when executed under `policy`:
// 2 * (protected muls + protected adds), in ops.
double plan_overhead_ops(const Network& network, const TmrPlan& plan,
                         ConvPolicy policy);

// Full-TMR cost of the network under `policy` (2 * all ops): the
// normalization denominator of Fig 5.
double full_tmr_ops(const Network& network, ConvPolicy policy);

// Accuracy of `point` with the plan's protection (its fault.protection
// is replaced), measured on the caller's runner — e.g. to verify that a
// W/O-AFT plan still meets the goal when run on Winograd.
double plan_accuracy(const CampaignRunner& runner, const TmrPlan& plan,
                     const CampaignPoint& point);

}  // namespace winofault
