// Figure 1 — Neuron-level vs operation-level fault injection.
//
// Paper: VGG19 (int16, CIFAR-100) swept over BER with both platforms.
// Expected shape: under neuron-level FI the ST-Conv and WG-Conv curves are
// indistinguishable (both flip bits of identical activation tensors); under
// operation-level FI Winograd holds visibly higher accuracy.
//
// All four (policy, mode) curves run as ONE campaign: per image, the two
// op-level and two neuron-level configurations of each policy share a
// single golden build. With --store-dir (or WINOFAULT_STORE) the campaign
// checkpoints finished cells and resumes after a kill; an unchanged rerun
// regenerates the figure from the journal without executing anything.
#include "bench_util.h"
#include "core/analysis/network_sweep.h"

using namespace winofault;
using namespace winofault::bench;

int main(int argc, char** argv) {
  const FigureCtx ctx = figure_ctx(1, argc, argv);
  ModelUnderTest m = make_model("vgg19", DType::kInt16, ctx.env);
  // Every fault model's campaign reuses the runner's goldens.
  const CampaignRunner runner(m.net, m.data);

  const std::vector<double> bers =
      log_ber_grid(1e-9, 1e-6, ctx.env.full ? 9 : 6);

  // One full figure per requested fault model. The default model keeps the
  // historical CSV name (and bytes); extra models append their slug.
  for (const FaultModelSpec& model : ctx.fault_models) {
    std::vector<SweepOptions> configs;
    for (const auto& [policy, mode] :
         {std::pair{ConvPolicy::kDirect, InjectionMode::kOpLevel},
          std::pair{ConvPolicy::kWinograd2, InjectionMode::kOpLevel},
          std::pair{ConvPolicy::kDirect, InjectionMode::kNeuronLevel},
          std::pair{ConvPolicy::kWinograd2, InjectionMode::kNeuronLevel}}) {
      SweepOptions options;
      options.bers = bers;
      options.policy = policy;
      options.mode = mode;
      options.model = model;
      options.seed = ctx.seed();
      options.store = ctx.store();
      configs.push_back(std::move(options));
    }
    const SweepResult sweep = accuracy_sweeps(runner, configs);
    note_partial(sweep.stats.cells_deferred);
    const auto& curves = sweep.curves;

    Table table({"ber", "exp_flips", "st_op_level", "wg_op_level",
                 "st_neuron_level", "wg_neuron_level"});
    const OpSpace st_space = m.net.total_op_space(ConvPolicy::kDirect);
    for (std::size_t i = 0; i < bers.size(); ++i) {
      table.add_row({Table::fmt_sci(bers[i]),
                     Table::fmt(bers[i] * st_space.total_bits(), 1),
                     Table::fmt(curves[0][i].accuracy * 100, 2),
                     Table::fmt(curves[1][i].accuracy * 100, 2),
                     Table::fmt(curves[2][i].accuracy * 100, 2),
                     Table::fmt(curves[3][i].accuracy * 100, 2)});
    }
    const bool builtin = model.is_default();
    emit(table,
         builtin ? std::string(
                       "Fig 1: neuron-level vs operation-level FI "
                       "(VGG19 int16)")
                 : "Fig 1: neuron-level vs operation-level FI (VGG19 "
                   "int16, " +
                       model.to_string() + ")",
         builtin ? std::string("fig1_fi_comparison")
                 : "fig1_fi_comparison_" + model.slug());

    // Headline check: max |ST - WG| separation per platform.
    double neuron_gap = 0, op_gap = 0;
    for (std::size_t i = 0; i < bers.size(); ++i) {
      op_gap = std::max(op_gap, std::abs(curves[0][i].accuracy -
                                         curves[1][i].accuracy));
      neuron_gap = std::max(neuron_gap, std::abs(curves[2][i].accuracy -
                                                 curves[3][i].accuracy));
    }
    std::printf(
        "max ST/WG separation: op-level %.1f pp, neuron-level %.1f pp "
        "(paper: op-level separates, neuron-level does not)\n",
        op_gap * 100, neuron_gap * 100);
  }
  return finish_figure();
}
