// Figure 2 — Accuracy of the four benchmark networks under standard vs
// Winograd convolution across the BER sweep, for int8 and int16, plus the
// Winograd accuracy improvement (the dotted curves of the paper).
//
// Expected shape: WG >= ST everywhere; improvements peak in the knee (the
// paper reports up to ~35 pp); int16 is more vulnerable than int8 at equal
// BER; DenseNet drops sharply while ResNet degrades smoothly.
//
// Per (network, dtype), the ST and WG sweeps run as one campaign. Each
// (network, dtype) campaign keys its own slice of the persistent store
// (--store-dir / WINOFAULT_STORE), so an interrupted 8-model grid resumes
// at the first unfinished cell.
#include "bench_util.h"
#include "core/analysis/network_sweep.h"

using namespace winofault;
using namespace winofault::bench;

int main(int argc, char** argv) {
  const FigureCtx ctx = figure_ctx(2, argc, argv);
  const std::vector<double> bers =
      log_ber_grid(1e-9, 1e-6, ctx.env.full ? 8 : 5);

  for (const FaultModelSpec& model : ctx.fault_models) {
    Table table(
        {"network", "dtype", "ber", "st_acc", "wg_acc", "improvement"});
    double max_improvement = 0;
    for (const ZooEntry& entry : model_zoo()) {
      for (const DType dtype : {DType::kInt8, DType::kInt16}) {
        ModelUnderTest m = make_model(entry.name, dtype, ctx.env);
        const CampaignRunner runner(m.net, m.data);
        SweepOptions st;
        st.bers = bers;
        st.model = model;
        st.seed = ctx.seed();
        st.store = ctx.store();
        SweepOptions wg = st;
        wg.policy = ConvPolicy::kWinograd2;
        const SweepResult sweep = accuracy_sweeps(runner, std::vector{st, wg});
        note_partial(sweep.stats.cells_deferred);
        const auto& st_curve = sweep.curves[0];
        const auto& wg_curve = sweep.curves[1];
        for (std::size_t i = 0; i < bers.size(); ++i) {
          const double improvement =
              wg_curve[i].accuracy - st_curve[i].accuracy;
          max_improvement = std::max(max_improvement, improvement);
          table.add_row({entry.name, dtype_name(dtype),
                         Table::fmt_sci(bers[i]),
                         Table::fmt(st_curve[i].accuracy * 100, 2),
                         Table::fmt(wg_curve[i].accuracy * 100, 2),
                         Table::fmt(improvement * 100, 2)});
        }
      }
    }
    const bool builtin = model.is_default();
    emit(table,
         builtin
             ? std::string(
                   "Fig 2: network accuracy, ST-Conv vs WG-Conv across BER "
                   "(4 models x int8/int16)")
             : "Fig 2: network accuracy, ST-Conv vs WG-Conv across BER (4 "
               "models x int8/int16, " +
                   model.to_string() + ")",
         builtin ? std::string("fig2_network_sweep")
                 : "fig2_network_sweep_" + model.slug());
    std::printf(
        "peak Winograd accuracy improvement: %.1f pp (paper: up to ~35 pp)\n",
        max_improvement * 100);
  }
  return finish_figure();
}
