// Example: energy-oriented deployment. Uses the accelerator models to pick
// the lowest safe supply voltage for an error-insensitive application
// (paper Sec 4.2) and reports the end-to-end energy saving enabled by
// Winograd fault-tolerance awareness.
#include <cstdio>

#include "core/energy/voltage_explorer.h"
#include "nn/models/zoo.h"

using namespace winofault;

int main() {
  ZooConfig config;
  config.dtype = DType::kInt16;
  config.width = 0.125;
  Network net = make_vgg19(config);
  const Dataset data = make_teacher_dataset(net, 16, 100, 0.726, 41);

  EnergyModel model;
  model.voltage.log10_ber_anchor = -10.0;  // reduced-model knee (see bench)

  // Accelerator runtime structure first.
  const auto descs = net.conv_descs();
  const double t_st =
      network_runtime_seconds(model.accel, descs, ConvPolicy::kDirect);
  const double t_wg =
      network_runtime_seconds(model.accel, descs, ConvPolicy::kWinograd2);
  std::printf("systolic runtime: ST %.3f ms, WG %.3f ms (%.2fx speedup)\n",
              t_st * 1e3, t_wg * 1e3, t_st / t_wg);

  // Both decision curves as one campaign, then a voltage per configuration:
  // ST-Conv and WG-Conv-W/O-AFT decide on the direct curve.
  const CampaignRunner runner(net, data);
  CampaignPoint base;
  base.seed = 43;
  const ConvPolicy policies[] = {ConvPolicy::kDirect, ConvPolicy::kWinograd2};
  const VoltageSweepResult curves =
      measure_voltage_curves(runner, model.voltage, base, policies,
                             voltage_grid(0.86, 0.72, 8));
  const double budget[] = {0.05};
  const auto st = pick_voltages(net, model, budget, ConvPolicy::kDirect,
                                curves.curves[0])[0];
  const auto wo = pick_voltages(net, model, budget, ConvPolicy::kWinograd2,
                                curves.curves[0])[0];
  const auto wa = pick_voltages(net, model, budget, ConvPolicy::kWinograd2,
                                curves.curves[1])[0];

  std::printf("5%% accuracy-loss budget:\n");
  std::printf("  ST-Conv:         %.3f V, energy %.3f of nominal baseline\n",
              st.chosen_voltage, st.energy_norm);
  std::printf("  WG-Conv-W/O-AFT: %.3f V, energy %.3f\n", wo.chosen_voltage,
              wo.energy_norm);
  std::printf("  WG-Conv-W/AFT:   %.3f V, energy %.3f\n", wa.chosen_voltage,
              wa.energy_norm);
  std::printf("awareness saves a further %.1f%% energy\n",
              100.0 * (1.0 - wa.energy_norm / wo.energy_norm));
  return 0;
}
