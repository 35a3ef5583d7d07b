// evaluate() behavior: determinism across thread counts, clean-accuracy
// recovery, degradation with BER, and the headline ordering — Winograd
// accuracy >= direct accuracy under operation-level faults.
#include <gtest/gtest.h>
#include <cstdlib>

#include "core/campaign/campaign.h"
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

Network eval_net() {
  Network net("evalnet", DType::kInt16);
  Rng rng(29);
  int x = net.add_input(Shape{1, 3, 16, 16});
  x = net.add_conv(x, 12, 3, 1, 1, rng);
  x = net.add_maxpool(x, 2, 2);
  x = net.add_conv(x, 12, 3, 1, 1, rng);
  x = net.add_global_avgpool(x);
  x = net.add_flatten(x);
  x = net.add_linear(x, 6, rng);
  net.set_output(x);
  net.calibrate(make_images(net.input_shape(), 3, 11));
  return net;
}

TEST(Evaluator, CleanRunMatchesDatasetTarget) {
  const Network net = eval_net();
  const Dataset data = make_teacher_dataset(net, 200, 6, 0.85, 7);
  CampaignPoint point;
  point.fault.ber = 0.0;
  const EvalResult result = evaluate(net, data, point);
  EXPECT_EQ(result.images, 200);
  EXPECT_NEAR(result.accuracy, 0.85, 0.08);
  EXPECT_EQ(result.avg_flips, 0.0);
}

TEST(Evaluator, DeterministicAcrossThreadCounts) {
  const Network net = eval_net();
  const Dataset data = make_teacher_dataset(net, 24, 6, 0.9, 8);
  CampaignPoint point;
  point.fault.ber = 3e-7;
  point.seed = 5;
  const EvalResult serial = evaluate(net, data, point, /*threads=*/1);
  const EvalResult parallel = evaluate(net, data, point, /*threads=*/4);
  EXPECT_DOUBLE_EQ(serial.accuracy, parallel.accuracy);
  EXPECT_DOUBLE_EQ(serial.avg_flips, parallel.avg_flips);
}

TEST(Evaluator, AccuracyDegradesWithBer) {
  const Network net = eval_net();
  const Dataset data = make_teacher_dataset(net, 60, 6, 0.95, 9);
  CampaignPoint point;
  point.seed = 3;
  double last_accuracy = 1.0;
  double clean = 0;
  for (const double ber : {0.0, 3e-6, 1e-4}) {
    point.fault.ber = ber;
    const EvalResult result = evaluate(net, data, point);
    if (ber == 0.0) {
      clean = result.accuracy;
    } else {
      EXPECT_LE(result.accuracy, last_accuracy + 0.10)
          << "accuracy should not rise with BER (ber=" << ber << ")";
    }
    last_accuracy = result.accuracy;
  }
  // The harshest BER must visibly hurt.
  EXPECT_LT(last_accuracy, clean - 0.2);
}

TEST(Evaluator, WinogradBeatsDirectUnderFaults) {
  // Use a conv-heavy toy so the Winograd mul reduction dominates.
  Network net("wg-vs-st", DType::kInt16);
  Rng rng(31);
  int x = net.add_input(Shape{1, 4, 16, 16});
  for (int i = 0; i < 4; ++i) x = net.add_conv(x, 16, 3, 1, 1, rng);
  x = net.add_global_avgpool(x);
  x = net.add_flatten(x);
  x = net.add_linear(x, 4, rng);
  net.set_output(x);
  net.calibrate(make_images(net.input_shape(), 3, 13));

  const Dataset data = make_teacher_dataset(net, 150, 4, 1.0, 10);
  CampaignPoint point;
  point.seed = 11;
  // Pick a BER in the degradation knee: a handful of flips per image.
  point.fault.ber = 2e-7;
  point.policy = ConvPolicy::kDirect;
  const EvalResult st = evaluate(net, data, point);
  point.policy = ConvPolicy::kWinograd2;
  const EvalResult wg = evaluate(net, data, point);
  EXPECT_LT(wg.avg_flips, st.avg_flips);
  EXPECT_GE(wg.accuracy, st.accuracy - 0.02)
      << "Winograd should be at least as robust as direct";
}

}  // namespace
}  // namespace winofault
