// Example: end-to-end fault-tolerance comparison on a benchmark network.
// Builds the reduced GoogLeNet (CIFAR-10 flavor), sweeps the bit-error
// rate, and prints standard-vs-Winograd accuracy — a miniature of Fig 2.
#include <cstdio>

#include "core/analysis/network_sweep.h"
#include "nn/models/zoo.h"

using namespace winofault;

int main() {
  ZooConfig config;
  config.dtype = DType::kInt16;
  config.width = 0.25;
  Network net = make_googlenet(config);
  const ZooEntry& entry = zoo_entry("googlenet");
  const Dataset data =
      make_teacher_dataset(net, 24, entry.num_classes, entry.clean_accuracy, 5);

  std::printf("GoogLeNet (reduced): %d protectable layers\n",
              net.num_protectable());
  const OpSpace st = net.total_op_space(ConvPolicy::kDirect);
  const OpSpace wg = net.total_op_space(ConvPolicy::kWinograd2);
  std::printf("muls: ST %.1fM  WG %.1fM  (5x5 branches fall back to direct)\n",
              st.n_mul / 1e6, wg.n_mul / 1e6);

  // Both curves as one campaign: every BER point of a policy replays
  // against the same per-image golden activations, and `trials`
  // independent injection streams per image tighten the estimate.
  SweepOptions st_sweep;
  st_sweep.bers = log_ber_grid(1e-9, 1e-6, 4);
  st_sweep.seed = 11;
  st_sweep.trials = 4;
  SweepOptions wg_sweep = st_sweep;
  wg_sweep.policy = ConvPolicy::kWinograd2;
  const CampaignRunner runner(net, data);
  const auto sweep = accuracy_sweeps(runner, std::vector{st_sweep, wg_sweep});
  const auto& st_curve = sweep.curves[0];
  const auto& wg_curve = sweep.curves[1];

  std::printf("%12s %10s %10s %12s\n", "BER", "ST acc", "WG acc", "flips/img");
  for (std::size_t i = 0; i < st_curve.size(); ++i) {
    std::printf("%12.1e %9.1f%% %9.1f%% %12.1f\n", st_curve[i].ber,
                st_curve[i].accuracy * 100, wg_curve[i].accuracy * 100,
                st_curve[i].avg_flips);
  }
  return 0;
}
