// Tests for the analysis drivers: BER sweeps, layer-wise vulnerability, and
// operation-type sensitivity on a small conv network.
#include <gtest/gtest.h>
#include <cstdlib>

#include "core/analysis/layer_vulnerability.h"
#include "core/analysis/network_sweep.h"
#include "core/analysis/op_type.h"
#include "nn/models/zoo.h"

namespace winofault {
namespace {

// This suite asserts the numeric semantics of the built-in flip@op
// injector (expected flip counts, degradation curves). Pin the built-in
// model so the registry-model CI leg (WINOFAULT_FAULT_MODEL) can run the
// full suite without changing what this file tests.
const bool kBuiltinModelPinned = [] {
  unsetenv("WINOFAULT_FAULT_MODEL");
  return true;
}();

struct Fixture {
  Network net;
  Dataset data;
};

Fixture make_fixture() {
  Network net("analysis", DType::kInt16);
  Rng rng(41);
  int x = net.add_input(Shape{1, 3, 16, 16});
  x = net.add_conv(x, 10, 3, 1, 1, rng);
  x = net.add_conv(x, 10, 3, 1, 1, rng);
  x = net.add_conv(x, 10, 3, 1, 1, rng);
  x = net.add_global_avgpool(x);
  x = net.add_flatten(x);
  x = net.add_linear(x, 5, rng);
  net.set_output(x);
  net.calibrate(make_images(net.input_shape(), 6, 3));
  Dataset data = make_teacher_dataset(net, 80, 5, 1.0, 12);
  return Fixture{std::move(net), std::move(data)};
}

TEST(NetworkSweep, LogGridAndMonotoneTrend) {
  const auto grid = log_ber_grid(1e-9, 1e-5, 5);
  ASSERT_EQ(grid.size(), 5u);
  EXPECT_NEAR(grid.front(), 1e-9, 1e-15);
  EXPECT_NEAR(grid.back(), 1e-5, 1e-10);
  EXPECT_NEAR(grid[1] / grid[0], 10.0, 1e-6);

  const Fixture f = make_fixture();
  SweepOptions options;
  options.bers = {1e-9, 1e-6, 3e-5};
  options.seed = 17;
  const auto points = accuracy_sweep(CampaignRunner(f.net, f.data), options);
  ASSERT_EQ(points.size(), 3u);
  // Negligible BER: clean accuracy; harsh BER: far below.
  EXPECT_GT(points[0].accuracy, 0.9);
  EXPECT_LT(points[2].accuracy, points[0].accuracy - 0.2);
  EXPECT_LT(points[0].avg_flips, points[2].avg_flips);
}

TEST(NetworkSweep, WinogradShiftsTheKnee) {
  const Fixture f = make_fixture();
  SweepOptions st;
  st.bers = {1e-6};
  st.seed = 23;
  SweepOptions wg = st;
  wg.policy = ConvPolicy::kWinograd2;
  const CampaignRunner runner(f.net, f.data);
  const double acc_st = accuracy_sweep(runner, st)[0].accuracy;
  const double acc_wg = accuracy_sweep(runner, wg)[0].accuracy;
  EXPECT_GE(acc_wg, acc_st - 0.05)
      << "Winograd accuracy should not trail direct by more than noise";
}

TEST(LayerVulnerability, FactorsAreReportedPerLayer) {
  const Fixture f = make_fixture();
  LayerwiseOptions options;
  options.ber = 3e-6;
  options.seed = 29;
  const LayerwiseResult result =
      layer_vulnerability(CampaignRunner(f.net, f.data), options);
  ASSERT_EQ(result.layers.size(), 4u);  // 3 convs + linear
  EXPECT_GT(result.base_accuracy, 0.0);
  for (const LayerSensitivity& layer : result.layers) {
    // Keeping a layer fault-free can only help, modulo sampling noise.
    EXPECT_GE(layer.accuracy_fault_free, result.base_accuracy - 0.1);
    EXPECT_GT(layer.n_mul, 0);
    EXPECT_GT(layer.n_add, 0);
  }
  // Conv layers (iso-shape here) dominate the tiny linear head.
  const auto& linear = result.layers.back();
  const auto& conv2 = result.layers[1];
  EXPECT_GT(conv2.n_mul, linear.n_mul);
}

TEST(LayerVulnerability, ZeroBerGivesZeroVulnerability) {
  const Fixture f = make_fixture();
  LayerwiseOptions options;
  options.ber = 0.0;
  options.seed = 31;
  const LayerwiseResult result =
      layer_vulnerability(CampaignRunner(f.net, f.data), options);
  for (const LayerSensitivity& layer : result.layers) {
    EXPECT_DOUBLE_EQ(layer.vulnerability, 0.0);
  }
}

TEST(OpType, MulsAreMoreVulnerableThanAdds) {
  const Fixture f = make_fixture();
  OpTypeOptions options;
  options.ber = 2e-6;
  options.seed = 37;
  const CampaignRunner runner(f.net, f.data);
  for (const ConvPolicy policy :
       {ConvPolicy::kDirect, ConvPolicy::kWinograd2}) {
    options.policy = policy;
    const OpTypeResult result = op_type_sensitivity(runner, options);
    // Removing mul faults recovers at least as much accuracy as removing
    // add faults: the paper's Fig 4 ordering.
    EXPECT_GE(result.accuracy_mul_fault_free,
              result.accuracy_add_fault_free - 0.03)
        << conv_policy_name(policy);
    // Both restricted runs dominate the all-faulty baseline.
    EXPECT_GE(result.accuracy_mul_fault_free,
              result.accuracy_all_faulty - 0.03);
    EXPECT_GE(result.accuracy_add_fault_free,
              result.accuracy_all_faulty - 0.03);
  }
}

}  // namespace
}  // namespace winofault
