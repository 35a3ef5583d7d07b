// Tests for the voltage-scaling explorer: budget monotonicity, the Fig 7
// configuration ordering, and grid helpers.
#include <gtest/gtest.h>

#include "core/energy/voltage_explorer.h"
#include "nn/models/zoo.h"

namespace winofault {
namespace {

struct Fixture {
  Network net;
  Dataset data;
};

Fixture make_fixture() {
  Network net("volt", DType::kInt16);
  Rng rng(53);
  int x = net.add_input(Shape{1, 3, 16, 16});
  x = net.add_conv(x, 10, 3, 1, 1, rng);
  x = net.add_conv(x, 10, 3, 1, 1, rng);
  x = net.add_global_avgpool(x);
  x = net.add_flatten(x);
  x = net.add_linear(x, 4, rng);
  net.set_output(x);
  net.calibrate(make_images(net.input_shape(), 6, 4));
  Dataset data = make_teacher_dataset(net, 60, 4, 1.0, 23);
  return Fixture{std::move(net), std::move(data)};
}

// A model whose error cliff sits where this small network feels it: the
// default anchors target the paper's billion-op networks, so tests shift
// the anchor BER up into this network's sensitivity range.
VoltageModel test_voltage_model() {
  VoltageModel model;
  model.log10_ber_anchor = -8.0;  // 1e-8 @ 0.82 V, 1e-4 @ 0.77 V
  return model;
}

TEST(VoltageGrid, DescendsInclusive) {
  const auto grid = voltage_grid(0.9, 0.7, 5);
  ASSERT_EQ(grid.size(), 5u);
  EXPECT_DOUBLE_EQ(grid.front(), 0.9);
  EXPECT_DOUBLE_EQ(grid.back(), 0.7);
  EXPECT_GT(grid[1], grid[2]);
}

TEST(AccuracyVsVoltage, DegradesAsVoltageDrops) {
  const Fixture f = make_fixture();
  const VoltageModel model = test_voltage_model();
  const auto grid = voltage_grid(0.86, 0.74, 7);
  const ConvPolicy direct[] = {ConvPolicy::kDirect};
  const auto curve =
      accuracy_vs_voltage_multi(CampaignRunner(f.net, f.data), model, direct,
                                grid, 31)
          .curves.front();
  ASSERT_EQ(curve.size(), grid.size());
  EXPECT_GT(curve.front().accuracy, 0.9);       // safe at high voltage
  EXPECT_LT(curve.back().accuracy,
            curve.front().accuracy - 0.15);      // broken at low voltage
  EXPECT_LT(curve.front().ber, curve.back().ber);
}

TEST(Explorer, LargerBudgetNeverCostsMoreEnergy) {
  const Fixture f = make_fixture();
  EnergyModel model;
  model.voltage = test_voltage_model();
  ExplorerOptions options;
  options.loss_budgets = {0.01, 0.05, 0.20};
  options.voltage_grid = voltage_grid(0.88, 0.72, 9);
  options.seed = 37;
  const auto points =
      explore_voltage_scaling(CampaignRunner(f.net, f.data), model, options);
  ASSERT_EQ(points.size(), 3u);
  for (std::size_t i = 1; i < points.size(); ++i) {
    EXPECT_LE(points[i].energy_norm, points[i - 1].energy_norm + 1e-9);
    EXPECT_LE(points[i].chosen_voltage, points[i - 1].chosen_voltage + 1e-9);
  }
  // Voltage scaling must save something vs the nominal baseline.
  EXPECT_LT(points.back().energy_norm, 1.0);
}

TEST(Explorer, WinogradExecutionSavesEnergy) {
  const Fixture f = make_fixture();
  EnergyModel model;
  model.voltage = test_voltage_model();
  // Array sized for this fixture's 10-channel layers.
  model.accel.rows = model.accel.cols = 8;
  ExplorerOptions st;
  st.loss_budgets = {0.05};
  st.voltage_grid = voltage_grid(0.88, 0.72, 9);
  st.seed = 41;

  ExplorerOptions wo_aft = st;  // Winograd runtime, direct decision curve
  wo_aft.exec_policy = ConvPolicy::kWinograd2;
  wo_aft.curve_policy = ConvPolicy::kDirect;

  ExplorerOptions w_aft = wo_aft;  // Winograd-aware decisions
  w_aft.curve_policy = ConvPolicy::kWinograd2;

  const CampaignRunner runner(f.net, f.data);
  const double e_st = explore_voltage_scaling(runner, model, st)[0].energy_norm;
  const double e_wo =
      explore_voltage_scaling(runner, model, wo_aft)[0].energy_norm;
  const double e_w =
      explore_voltage_scaling(runner, model, w_aft)[0].energy_norm;
  EXPECT_LT(e_wo, e_st);           // Winograd runtime alone saves energy
  EXPECT_LE(e_w, e_wo + 1e-9);     // awareness can only scale deeper
}

}  // namespace
}  // namespace winofault
