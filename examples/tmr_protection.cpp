// Example: planning fine-grained TMR protection for a safety-critical
// deployment. Runs the vulnerability analysis on a small VGG-style network,
// plans protection to hit an accuracy goal, and compares the cost of
// fault-tolerance-aware Winograd planning against the standard-conv plan.
#include <cstdio>

#include "core/protect/tmr_planner.h"
#include "nn/models/zoo.h"

using namespace winofault;

int main() {
  ZooConfig config;
  config.dtype = DType::kInt16;
  config.width = 0.125;
  Network net = make_vgg19(config);
  const Dataset data = make_teacher_dataset(net, 32, 100, 0.726, 21);

  const OpSpace ops = net.total_op_space(ConvPolicy::kDirect);
  const double ber = 30.0 / static_cast<double>(ops.total_bits());
  std::printf("VGG19 (reduced), BER %.1e (~30 expected flips/inference)\n",
              ber);

  // Every analysis and plan below runs on one runner, so each image's
  // golden activations are built once for all of them.
  const CampaignRunner runner(net, data);

  // Vulnerability profile.
  LayerwiseOptions lw;
  lw.ber = ber;
  lw.seed = 31;
  const LayerwiseResult analysis = layer_vulnerability(runner, lw);
  std::printf("baseline accuracy (all faulty): %.1f%%\n",
              analysis.base_accuracy * 100);
  std::printf("%6s %12s %14s %12s\n", "layer", "fault-free", "vulnerability",
              "muls");
  for (const LayerSensitivity& layer : analysis.layers) {
    std::printf("%6d %11.1f%% %13.1f pp %12lld\n", layer.layer,
                layer.accuracy_fault_free * 100, layer.vulnerability * 100,
                static_cast<long long>(layer.n_mul));
  }

  // Plan to recover to within 10 pp of clean accuracy.
  const double goal = 0.62;
  const auto order = vulnerability_order(analysis);

  TmrPlanOptions st_opts;
  st_opts.ber = ber;
  st_opts.accuracy_goal = goal;
  st_opts.seed = 33;
  st_opts.layer_order = &order;
  const TmrPlan st_plan = plan_tmr(runner, st_opts);

  TmrPlanOptions wg_opts = st_opts;
  wg_opts.analysis_policy = ConvPolicy::kWinograd2;
  const TmrPlan wg_plan = plan_tmr(runner, wg_opts);

  const double st_full = full_tmr_ops(net, ConvPolicy::kDirect);
  std::printf("\naccuracy goal %.0f%%:\n", goal * 100);
  std::printf("  ST-Conv plan:        %5.1f%% of full-network TMR\n",
              100 * plan_overhead_ops(net, st_plan, ConvPolicy::kDirect) /
                  st_full);
  std::printf("  WG-Conv-W/O-AFT:     %5.1f%% (ST plan on Winograd)\n",
              100 * plan_overhead_ops(net, st_plan, ConvPolicy::kWinograd2) /
                  st_full);
  std::printf("  WG-Conv-W/AFT:       %5.1f%% (Winograd-aware plan)\n",
              100 * plan_overhead_ops(net, wg_plan, ConvPolicy::kWinograd2) /
                  st_full);
  return 0;
}
