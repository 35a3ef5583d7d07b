// Figure 7 — Voltage-scaling-assisted energy of VGG19 (int16) under
// accuracy-loss budgets 1/3/5/10%, normalized to ST-Conv at nominal
// voltage, for the paper's three configurations.
//
// Expected shape: ST-Conv saves energy vs the nominal baseline (inherent
// fault tolerance alone); WG-Conv-W/O-AFT saves much more (fewer ops =>
// shorter runtime, paper: 42.89% vs ST); WG-Conv-W/AFT scales voltage
// deeper still (paper: a further 7.19%).
#include "bench_util.h"
#include "core/energy/voltage_explorer.h"

using namespace winofault;
using namespace winofault::bench;

int main(int argc, char** argv) {
  EnergyModel model;
  model.voltage.log10_ber_anchor = volt_anchor_knob(argv[0]);  // see fig6
  const FigureCtx ctx = figure_ctx(7, argc, argv);
  ModelUnderTest m = make_model("vgg19", DType::kInt16, ctx.env);
  // One runner for both curves: the second replays the first's goldens.
  const CampaignRunner runner(m.net, m.data);

  ExplorerOptions base;
  base.loss_budgets = {0.01, 0.03, 0.05, 0.10};
  base.voltage_grid = voltage_grid(0.86, 0.72, ctx.env.full ? 15 : 8);
  base.seed = ctx.seed();

  ExplorerOptions st = base;  // direct decisions, direct execution
  ExplorerOptions wo = base;  // direct decisions, Winograd execution
  wo.exec_policy = ConvPolicy::kWinograd2;
  ExplorerOptions wa = wo;    // Winograd decisions, Winograd execution
  wa.curve_policy = ConvPolicy::kWinograd2;

  // Each decision curve is measured once (one campaign per policy); ST-Conv
  // and WG-Conv-W/O-AFT share the direct curve.
  const VoltageCurve st_curve = measure_voltage_curve(
      runner, model.voltage, ConvPolicy::kDirect, base.voltage_grid,
      base.seed, /*threads=*/0, /*trials=*/1, ctx.store());
  const VoltageCurve wg_curve = measure_voltage_curve(
      runner, model.voltage, ConvPolicy::kWinograd2, base.voltage_grid,
      base.seed, /*threads=*/0, /*trials=*/1, ctx.store());
  note_partial(st_curve.cells_deferred + wg_curve.cells_deferred);
  const auto st_points = pick_voltages(m.net, model, st, st_curve);
  const auto wo_points = pick_voltages(m.net, model, wo, st_curve);
  const auto wa_points = pick_voltages(m.net, model, wa, wg_curve);

  Table table({"loss_budget", "st_energy", "st_volt", "wo_aft_energy",
               "wo_aft_volt", "w_aft_energy", "w_aft_volt"});
  double sum_vs_st = 0, sum_vs_wo = 0;
  for (std::size_t i = 0; i < st_points.size(); ++i) {
    table.add_row({Table::fmt(st_points[i].loss_budget * 100, 0) + "%",
                   Table::fmt(st_points[i].energy_norm, 4),
                   Table::fmt(st_points[i].chosen_voltage, 3),
                   Table::fmt(wo_points[i].energy_norm, 4),
                   Table::fmt(wo_points[i].chosen_voltage, 3),
                   Table::fmt(wa_points[i].energy_norm, 4),
                   Table::fmt(wa_points[i].chosen_voltage, 3)});
    sum_vs_st += 1.0 - wa_points[i].energy_norm / st_points[i].energy_norm;
    sum_vs_wo += 1.0 - wa_points[i].energy_norm / wo_points[i].energy_norm;
  }
  emit(table,
       "Fig 7: normalized energy under voltage scaling (VGG19 int16; "
       "baseline = ST-Conv @ 0.9 V)",
       "fig7_energy");
  std::printf(
      "avg energy reduction of WG-Conv-W/AFT: %.2f%% vs ST-Conv, %.2f%% vs "
      "WG-Conv-W/O-AFT (paper: 42.89%% and 7.19%%)\n",
      100.0 * sum_vs_st / st_points.size(),
      100.0 * sum_vs_wo / wo_points.size());
  return finish_figure();
}
