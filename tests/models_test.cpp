// Model-zoo construction tests at tiny width: topology sizes, calibration,
// cross-policy fault-free equivalence, and Winograd mul reduction at the
// network level for each of the paper's four benchmarks.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "accel/systolic.h"
#include "fault/models/overlay.h"
#include "nn/dataset.h"
#include "nn/fault_session.h"
#include "nn/models/zoo.h"
#include "test_util.h"

namespace winofault {
namespace {

ZooConfig tiny_config() {
  ZooConfig config;
  config.width = 0.05;  // floor at 4 channels everywhere: fast smoke builds
  config.calib_images = 2;
  config.seed = 314;
  return config;
}

TEST(Zoo, RegistryHasAllFourBenchmarks) {
  const auto zoo = model_zoo();
  ASSERT_EQ(zoo.size(), 4u);
  EXPECT_EQ(zoo[0].name, "densenet169");
  EXPECT_EQ(zoo[1].name, "resnet50");
  EXPECT_EQ(zoo[2].name, "vgg19");
  EXPECT_EQ(zoo[3].name, "googlenet");
  EXPECT_DOUBLE_EQ(zoo_entry("vgg19").clean_accuracy, 0.726);
}

TEST(Zoo, ScaledChannelsFloorsAndEvens) {
  EXPECT_EQ(scaled_channels(64, 0.25), 16);
  EXPECT_EQ(scaled_channels(64, 1.0), 64);
  EXPECT_EQ(scaled_channels(3, 0.25), 4);    // floor
  EXPECT_EQ(scaled_channels(100, 0.25), 26); // 25 -> rounded up to even
}

// An overlay golden against a definition-level reference. VGG19 feeds
// every protectable node from the node before it, so each node is
// recomputed from the overlay golden's own input activation: the layer's
// no-golden path over the overlay's weight defects, then every output's
// register bits in overlay order (accel/systolic's output-stationary
// mapping). Replay-vs-scratch checks cannot catch a plan conversion that
// drops or reorders register bits, because both sides share it.
TEST(Zoo, OverlayGoldenMatchesDefinitionReference) {
  const Network net = zoo_entry("vgg19").build(tiny_config());
  const TensorF image = make_images(net.input_shape(), 1, 2718)[0];
  const GoldenCache clean = net.make_golden(image, ConvPolicy::kDirect);
  const int width = bit_width(net.dtype());
  for (const char* spec : {"toggle@accum#perm", "stuck1(0.01)@weight#perm"}) {
    FaultConfig config;
    config.ber = 0.01;
    config.model = *FaultModelSpec::parse(spec);
    const FaultOverlay overlay = build_fault_overlay(net, config, 5);
    ASSERT_FALSE(overlay.empty()) << spec;
    for (const ConvPolicy policy :
         {ConvPolicy::kDirect, ConvPolicy::kWinograd2}) {
      const std::string what =
          std::string(spec) + " " + conv_policy_name(policy);
      const GoldenCache golden = net.make_golden(image, policy, &overlay);
      int moved = 0;
      for (int p = 0; p < net.num_protectable(); ++p) {
        const ConvLayer& layer = net.protectable_layer(p);
        const int node = net.protectable_node(p);
        const NodeOutput& in = golden.node_output(node - 1);
        ASSERT_EQ(in.tensor.shape(), layer.desc().in_shape()) << what;
        const NodeOutput* ins[] = {&in};
        FaultPlan::LayerFaults defects;
        if (static_cast<std::size_t>(p) < overlay.weights.size()) {
          defects.weights = overlay.weights[static_cast<std::size_t>(p)];
        }
        TensorI32 expected =
            layer.forward_replay(ins, golden.node_output(node).quant, policy,
                                 defects, overlay.kind, nullptr);
        for (std::int64_t j = 0;
             !overlay.accum_bits.empty() && j < expected.numel(); ++j) {
          for (const int bit : overlay.accum_bits[static_cast<std::size_t>(
                   accum_register_for_output(SystolicConfig{}, j))]) {
            expected[j] = static_cast<std::int32_t>(
                apply_fault_kind(overlay.kind, expected[j], bit, width));
          }
        }
        testing::expect_tensors_equal(expected,
                                      golden.node_output(node).tensor,
                                      what.c_str());
        moved += golden.node_output(node).tensor !=
                 clean.node_output(node).tensor;
      }
      EXPECT_GT(moved, 0) << what;
    }
  }
}

struct ZooCase {
  const char* name;
  int expected_protectable;
};

class ZooBuild : public ::testing::TestWithParam<ZooCase> {};

TEST_P(ZooBuild, ConstructsCalibratesAndPredicts) {
  const ZooCase& c = GetParam();
  const ZooEntry& entry = zoo_entry(c.name);
  const Network net = entry.build(tiny_config());
  EXPECT_TRUE(net.calibrated());
  EXPECT_EQ(net.num_protectable(), c.expected_protectable) << c.name;

  const auto images = make_images(net.input_shape(), 2, 1234);
  ExecContext ctx;
  for (const TensorF& image : images) {
    const int prediction = net.predict(image, ctx);
    EXPECT_GE(prediction, 0);
    EXPECT_LT(prediction, entry.num_classes);
  }
}

// Fault-free outputs are engine-independent, so one golden serves every
// policy: make_golden agrees at every node under direct, winograd2 and
// winograd4, on clean silicon and on defective silicon (a weight overlay
// and an accumulator overlay).
TEST_P(ZooBuild, WinogradMatchesDirectFaultFree) {
  const ZooCase& c = GetParam();
  const Network net = zoo_entry(c.name).build(tiny_config());
  const TensorF image = make_images(net.input_shape(), 1, 4321)[0];
  std::vector<FaultOverlay> overlays(1);  // overlays[0] is clean silicon
  for (const char* spec :
       {"stuck1(0.01)@weight#perm", "toggle(0.02)@accum#perm"}) {
    FaultConfig config;
    config.model = *FaultModelSpec::parse(spec);
    overlays.push_back(build_fault_overlay(net, config, 11));
    ASSERT_FALSE(overlays.back().empty()) << c.name << " " << spec;
  }
  for (const FaultOverlay& overlay : overlays) {
    const FaultOverlay* silicon = overlay.empty() ? nullptr : &overlay;
    const GoldenCache direct =
        net.make_golden(image, ConvPolicy::kDirect, silicon);
    for (const ConvPolicy policy :
         {ConvPolicy::kWinograd2, ConvPolicy::kWinograd4}) {
      const GoldenCache golden = net.make_golden(image, policy, silicon);
      const std::string what = std::string(c.name) + " policy " +
                               std::to_string(static_cast<int>(policy)) +
                               " sites " + std::to_string(overlay.site_count);
      for (int node = 0; node < net.num_nodes(); ++node) {
        testing::expect_tensors_equal(direct.node_output(node).tensor,
                                      golden.node_output(node).tensor,
                                      what.c_str());
      }
      testing::expect_tensors_equal(direct.logits(), golden.logits(),
                                    what.c_str());
      EXPECT_EQ(direct.prediction(), golden.prediction()) << what;
    }
  }
}

TEST_P(ZooBuild, WinogradReducesNetworkMuls) {
  const ZooCase& c = GetParam();
  const Network net = zoo_entry(c.name).build(tiny_config());
  const OpSpace direct = net.total_op_space(ConvPolicy::kDirect);
  const OpSpace wg = net.total_op_space(ConvPolicy::kWinograd4);
  EXPECT_LT(wg.n_mul, direct.n_mul) << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, ZooBuild,
    ::testing::Values(
        // VGG19: 16 convs + 1 linear.
        ZooCase{"vgg19", 17},
        // ResNet50: stem + 16 blocks * 3 convs + 4 projections + fc = 54.
        ZooCase{"resnet50", 54},
        // DenseNet169: stem + 82*2 dense convs + 3 transitions + fc = 169.
        ZooCase{"densenet169", 169},
        // GoogLeNet: stem + 9 inceptions * 6 convs + fc = 56.
        ZooCase{"googlenet", 56}),
    [](const ::testing::TestParamInfo<ZooCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace winofault
