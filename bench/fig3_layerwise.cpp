// Figure 3 — Layer-wise sensitivity of VGG19 (int16, CIFAR-100): accuracy
// with one fault-free layer while all other layers are injected, for both
// conv implementations, together with per-layer multiplication counts.
//
// Expected shape: center layers are the most sensitive; the sensitivity
// profile tracks the per-layer mul count (correlation reported); WG curves
// sit above ST; both profiles have the same shape.
#include "bench_util.h"
#include "common/stats.h"
#include "core/analysis/layer_vulnerability.h"

using namespace winofault;
using namespace winofault::bench;

int main(int argc, char** argv) {
  // Scaled analogue of the paper's 3e-10 (see bench_util.h BER note). Read
  // before figure_ctx forks any --workers.
  const double ber = ber_knob(argv[0]);
  const FigureCtx ctx = figure_ctx(3, argc, argv);
  ModelUnderTest m = make_model("vgg19", DType::kInt16, ctx.env);
  // Both engines' analyses replay the runner's goldens.
  const CampaignRunner runner(m.net, m.data);

  for (const FaultModelSpec& model : ctx.fault_models) {
    LayerwiseOptions st;
    st.ber = ber;
    st.model = model;
    st.seed = ctx.seed();
    st.store = ctx.store();
    LayerwiseOptions wg = st;
    wg.policy = ConvPolicy::kWinograd2;
    const LayerwiseResult st_result = layer_vulnerability(runner, st);
    const LayerwiseResult wg_result = layer_vulnerability(runner, wg);
    note_partial(st_result.cells_deferred + wg_result.cells_deferred);

    Table table({"fault_free_layer", "st_acc", "wg_acc", "st_base",
                 "wg_base", "st_muls", "wg_muls"});
    std::vector<double> layer_ids, st_acc, mul_counts;
    for (std::size_t i = 0; i < st_result.layers.size(); ++i) {
      const LayerSensitivity& sl = st_result.layers[i];
      const LayerSensitivity& wl = wg_result.layers[i];
      table.add_row({std::to_string(i),
                     Table::fmt(sl.accuracy_fault_free * 100, 2),
                     Table::fmt(wl.accuracy_fault_free * 100, 2),
                     Table::fmt(st_result.base_accuracy * 100, 2),
                     Table::fmt(wg_result.base_accuracy * 100, 2),
                     std::to_string(sl.n_mul), std::to_string(wl.n_mul)});
      layer_ids.push_back(static_cast<double>(i));
      st_acc.push_back(sl.accuracy_fault_free);
      mul_counts.push_back(static_cast<double>(sl.n_mul));
    }
    const bool builtin = model.is_default();
    emit(table,
         "Fig 3: layer-wise sensitivity of VGG19 int16 @ BER " +
             Table::fmt_sci(ber) +
             (builtin ? "" : ", " + model.to_string()),
         builtin ? std::string("fig3_layerwise")
                 : "fig3_layerwise_" + model.slug());
    std::printf(
        "correlation(layer sensitivity, layer mul count) = %.2f "
        "(paper: sensitivity roughly tracks the mul profile)\n",
        pearson(st_acc, mul_counts));
  }
  return finish_figure();
}
