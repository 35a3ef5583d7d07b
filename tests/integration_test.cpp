// Cross-module integration: a miniature of the paper's full pipeline on a
// small VGG-style network — sweep, layer analysis, TMR planning, and
// voltage-scaled energy — asserting the paper's qualitative orderings
// end-to-end (the same invariants the benches report at full scale).
#include <gtest/gtest.h>

#include <cmath>

#include "core/analysis/network_sweep.h"
#include "core/analysis/op_type.h"
#include "core/energy/voltage_explorer.h"
#include "core/protect/tmr_planner.h"
#include "nn/models/zoo.h"

namespace winofault {
namespace {

class PipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Network* net = new Network("mini-vgg", DType::kInt16);
    Rng rng(61);
    // Realistic channel widths: Winograd's advantages (mul reduction on
    // the fault side, utilization on the systolic side) need non-trivial
    // channel counts, exactly as on real accelerators.
    int x = net->add_input(Shape{1, 3, 16, 16});
    x = net->add_conv(x, 24, 3, 1, 1, rng);
    x = net->add_conv(x, 24, 3, 1, 1, rng);
    x = net->add_maxpool(x, 2, 2);
    x = net->add_conv(x, 32, 3, 1, 1, rng);
    x = net->add_conv(x, 32, 3, 1, 1, rng);
    x = net->add_global_avgpool(x);
    x = net->add_flatten(x);
    x = net->add_linear(x, 8, rng);
    net->set_output(x);
    net->calibrate(make_images(net->input_shape(), 6, 8));
    net_ = net;
    data_ = new Dataset(make_teacher_dataset(*net, 48, 8, 0.9, 63));
    // One runner for the suite, as a figure keeps one per environment.
    runner_ = new CampaignRunner(*net_, *data_);
    const OpSpace ops = net->total_op_space(ConvPolicy::kDirect);
    knee_ber_ = 25.0 / static_cast<double>(ops.total_bits());
  }
  static void TearDownTestSuite() {
    delete runner_;
    delete net_;
    delete data_;
  }

  static const Network* net_;
  static const Dataset* data_;
  static const CampaignRunner* runner_;
  static double knee_ber_;
};

const Network* PipelineTest::net_ = nullptr;
const Dataset* PipelineTest::data_ = nullptr;
const CampaignRunner* PipelineTest::runner_ = nullptr;
double PipelineTest::knee_ber_ = 0;

TEST_F(PipelineTest, Fig2Shape_WinogradAtLeastAsAccurate) {
  SweepOptions options;
  options.bers = {knee_ber_};
  options.seed = 101;
  const double st = accuracy_sweep(*runner_, options)[0].accuracy;
  options.policy = ConvPolicy::kWinograd2;
  const double wg = accuracy_sweep(*runner_, options)[0].accuracy;
  EXPECT_GE(wg, st - 0.03);
}

TEST_F(PipelineTest, Fig4Shape_MulsDominateVulnerability) {
  CampaignPoint base;
  base.fault.ber = knee_ber_;
  base.seed = 103;
  const OpTypeResult result = op_type_sensitivity(*runner_, base);
  EXPECT_GE(result.accuracy_mul_fault_free, result.accuracy_add_fault_free);
}

TEST_F(PipelineTest, Fig5Shape_AwarePlanningCutsOverhead) {
  CampaignPoint lw;
  lw.fault.ber = knee_ber_;
  lw.seed = 105;
  const auto st_order = vulnerability_order(layer_vulnerability(*runner_, lw));
  lw.policy = ConvPolicy::kWinograd2;
  const auto wg_order = vulnerability_order(layer_vulnerability(*runner_, lw));

  TmrPlanOptions st_opts;
  st_opts.check.fault.ber = knee_ber_;
  st_opts.check.seed = 107;
  st_opts.accuracy_goal = 0.8;
  st_opts.step_fraction = 0.25;
  st_opts.layer_order = &st_order;
  const TmrPlan st_plan = plan_tmr(*runner_, st_opts);

  TmrPlanOptions wg_opts = st_opts;
  wg_opts.check.policy = ConvPolicy::kWinograd2;
  wg_opts.layer_order = &wg_order;
  const TmrPlan wg_plan = plan_tmr(*runner_, wg_opts);

  const double st_ovh = plan_overhead_ops(*net_, st_plan, ConvPolicy::kDirect);
  const double wo_ovh =
      plan_overhead_ops(*net_, st_plan, ConvPolicy::kWinograd2);
  const double wa_ovh =
      plan_overhead_ops(*net_, wg_plan, ConvPolicy::kWinograd2);
  EXPECT_LE(wo_ovh, st_ovh);         // same plan costs less on Winograd
  // Awareness must not blow the budget (the precise 27% average reduction
  // is a statistical claim measured by bench/fig5 at larger sample sizes;
  // at this test's sample size plan sizes carry +-1-step noise).
  EXPECT_LE(wa_ovh, st_ovh);
  EXPECT_LE(wa_ovh, wo_ovh * 1.6);
  // The W/O-AFT plan still meets the goal when executed on Winograd
  // (Winograd is at least as fault-tolerant as direct).
  CampaignPoint on_wg = st_opts.check;
  on_wg.policy = ConvPolicy::kWinograd2;
  const double wo_acc = plan_accuracy(*runner_, st_plan, on_wg);
  EXPECT_GE(wo_acc, 0.8 - 0.08);
}

TEST_F(PipelineTest, Fig7Shape_EnergyOrdering) {
  EnergyModel model;
  // Shift the cliff into this network's sensitivity range, and size the
  // array for this small model's channel counts.
  model.voltage.log10_ber_anchor = std::log10(knee_ber_) + 1.0;
  model.accel.rows = model.accel.cols = 8;
  // Each curve measured once; ST-Conv and W/O-AFT share the direct one.
  const double budget[] = {0.05};
  const ConvPolicy policies[] = {ConvPolicy::kDirect, ConvPolicy::kWinograd2};
  CampaignPoint base;
  base.seed = 109;
  const VoltageSweepResult curves =
      measure_voltage_curves(*runner_, model.voltage, base, policies,
                             voltage_grid(0.86, 0.74, 7));
  const double e_st = pick_voltages(*net_, model, budget, ConvPolicy::kDirect,
                                    curves.curves[0])[0]
                          .energy_norm;
  const double e_wo = pick_voltages(*net_, model, budget,
                                    ConvPolicy::kWinograd2, curves.curves[0])[0]
                          .energy_norm;
  const double e_wa = pick_voltages(*net_, model, budget,
                                    ConvPolicy::kWinograd2, curves.curves[1])[0]
                          .energy_norm;
  EXPECT_LT(e_wo, e_st);
  EXPECT_LE(e_wa, e_wo + 1e-9);
  EXPECT_LE(e_st, 1.0 + 1e-9);
}

TEST_F(PipelineTest, Fig1Shape_NeuronLevelIsBlind) {
  SweepOptions options;
  options.bers = {knee_ber_ * 4};
  options.mode = InjectionMode::kNeuronLevel;
  options.seed = 111;
  const double st = accuracy_sweep(*runner_, options)[0].accuracy;
  options.policy = ConvPolicy::kWinograd2;
  const double wg = accuracy_sweep(*runner_, options)[0].accuracy;
  // Identical per-seed corruption => identical accuracy.
  EXPECT_DOUBLE_EQ(st, wg);
}

}  // namespace
}  // namespace winofault
