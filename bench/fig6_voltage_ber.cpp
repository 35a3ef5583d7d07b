// Figure 6 — Accelerator timing-error BER vs supply voltage (DNN-Engine-
// like model [41]) and the resulting VGG19 accuracy for ST-Conv vs WG-Conv.
//
// Expected shape: BER climbs ~4 decades over a 50 mV drop; both accuracy
// curves collapse as voltage falls, with the Winograd curve shifted to
// lower voltage (it tolerates a higher BER).
#include "bench_util.h"
#include "core/energy/voltage_explorer.h"

using namespace winofault;
using namespace winofault::bench;

int main(int argc, char** argv) {
  VoltageModel volt;
  // The reduced VGG19 executes ~30x fewer ops than the paper's, so its
  // accuracy knee sits at a ~30x higher BER; shift the anchor accordingly
  // (same slope) so the cliff lands inside the plotted voltage window.
  // Read before figure_ctx forks any --workers.
  volt.log10_ber_anchor = volt_anchor_knob(argv[0]);
  const FigureCtx ctx = figure_ctx(6, argc, argv);
  ModelUnderTest m = make_model("vgg19", DType::kInt16, ctx.env);
  const CampaignRunner runner(m.net, m.data);

  const auto grid = voltage_grid(0.82, 0.74, ctx.env.full ? 13 : 9);
  // Both policies' curves as one campaign over the whole grid.
  const ConvPolicy policies[] = {ConvPolicy::kDirect, ConvPolicy::kWinograd2};
  const VoltageSweepResult sweep = accuracy_vs_voltage_multi(
      runner, volt, policies, grid, ctx.seed(), /*threads=*/0, /*trials=*/1,
      ctx.store());
  note_partial(sweep.stats.cells_deferred);
  const auto& st = sweep.curves[0];
  const auto& wg = sweep.curves[1];

  Table table({"voltage_v", "ber", "st_acc", "wg_acc"});
  for (std::size_t i = 0; i < grid.size(); ++i) {
    table.add_row({Table::fmt(grid[i], 3), Table::fmt_sci(st[i].ber),
                   Table::fmt(st[i].accuracy * 100, 2),
                   Table::fmt(wg[i].accuracy * 100, 2)});
  }
  emit(table, "Fig 6: BER and VGG19 accuracy vs supply voltage",
       "fig6_voltage_ber");

  // Lowest voltage each implementation sustains within 5 pp of clean.
  const double clean_st = st.front().accuracy;
  double v_st = volt.v_nom, v_wg = volt.v_nom;
  for (const auto& p : st)
    if (p.accuracy >= clean_st - 0.05) v_st = std::min(v_st, p.voltage);
  for (const auto& p : wg)
    if (p.accuracy >= clean_st - 0.05) v_wg = std::min(v_wg, p.voltage);
  std::printf(
      "lowest voltage within 5 pp of clean: ST-Conv %.3f V, WG-Conv %.3f V "
      "(paper: Winograd scales deeper)\n",
      v_st, v_wg);
  return finish_figure();
}
