// Figure 4 — Operation-type sensitivity: accuracy with fault-free
// multiplications ("X-Conv-Mul") vs fault-free additions ("X-Conv-Add")
// for every benchmark network, both data widths, both conv algorithms.
//
// Expected shape: the Mul curves (mul kept clean) are far above the Add
// curves — multiplications are the vulnerable op type; WG-Conv-Mul is
// comparable to ST-Conv-Mul even though Winograd multiplies 2.25x less,
// which is what makes Winograd cheaper to protect.
#include "bench_util.h"
#include "core/analysis/op_type.h"

using namespace winofault;
using namespace winofault::bench;

int main(int argc, char** argv) {
  const FigureCtx ctx = figure_ctx(4, argc, argv);

  for (const FaultModelSpec& model : ctx.fault_models) {
    Table table({"network", "dtype", "ber", "impl", "all_faulty",
                 "mul_fault_free", "add_fault_free"});
    double min_mul_advantage = 1.0;
    for (const ZooEntry& entry : model_zoo()) {
      for (const DType dtype : {DType::kInt8, DType::kInt16}) {
        ModelUnderTest m = make_model(entry.name, dtype, ctx.env);
        // One runner for both engines: one golden per image serves both.
        const CampaignRunner runner(m.net, m.data);
        // Per-network BER near its knee: scale with total op bits so every
        // model is stressed comparably (the paper likewise picks
        // per-network rates between 1e-11 and 9e-8).
        const OpSpace space = m.net.total_op_space(ConvPolicy::kDirect);
        const double ber = 20.0 / static_cast<double>(space.total_bits());
        for (const ConvPolicy policy :
             {ConvPolicy::kDirect, ConvPolicy::kWinograd2}) {
          OpTypeOptions options;
          options.ber = ber;
          options.policy = policy;
          options.model = model;
          options.seed = ctx.seed();
          options.store = ctx.store();
          const OpTypeResult r = op_type_sensitivity(runner, options);
          note_partial(r.cells_deferred);
          min_mul_advantage = std::min(
              min_mul_advantage,
              r.accuracy_mul_fault_free - r.accuracy_add_fault_free);
          table.add_row({entry.name, dtype_name(dtype), Table::fmt_sci(ber),
                         conv_policy_name(policy),
                         Table::fmt(r.accuracy_all_faulty * 100, 2),
                         Table::fmt(r.accuracy_mul_fault_free * 100, 2),
                         Table::fmt(r.accuracy_add_fault_free * 100, 2)});
        }
      }
    }
    const bool builtin = model.is_default();
    emit(table,
         builtin
             ? std::string(
                   "Fig 4: op-type sensitivity (mul fault-free vs add "
                   "fault-free)")
             : "Fig 4: op-type sensitivity (mul fault-free vs add "
               "fault-free, " +
                   model.to_string() + ")",
         builtin ? std::string("fig4_optype")
                 : "fig4_optype_" + model.slug());
    std::printf(
        "min (mul_ff - add_ff) across configs: %.1f pp "
        "(paper: muls are consistently the vulnerable type)\n",
        min_mul_advantage * 100);
  }
  return finish_figure();
}
