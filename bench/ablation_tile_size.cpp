// Ablation — Winograd tile size from the fault-tolerance angle.
//
// F(4,3) multiplies 4x less than direct while F(2,3) multiplies 2.25x
// less, but F(4,3)'s inverse-transform coefficients reach 8x8 = 64, so a
// single product fault is amplified across the 4x4 output tile, whereas
// F(2,3)'s coefficients are all +-1. This bench quantifies the trade-off
// the paper leaves implicit by choosing F(2,3)-class Winograd: op counts,
// transform-stage op share, and accuracy under the same BER sweep.
#include "bench_util.h"
#include "core/analysis/network_sweep.h"

using namespace winofault;
using namespace winofault::bench;

int main(int argc, char** argv) {
  const CliOptions cli = parse_cli(argc, argv);
  reject_dist_cli(cli, argv[0],
                  "tile-size ablation does not wire worker shards");
  require_builtin_fault_model(cli, argv[0]);
  const BenchEnv env = bench_env(argv[0]);
  ModelUnderTest m = make_model("vgg19", DType::kInt16, env);

  // Op-count structure.
  Table ops({"impl", "muls_M", "adds_M", "mul_reduction_vs_st"});
  const OpSpace st = m.net.total_op_space(ConvPolicy::kDirect);
  for (const auto& [name, policy] :
       std::initializer_list<std::pair<const char*, ConvPolicy>>{
           {"ST-Conv", ConvPolicy::kDirect},
           {"WG-F2", ConvPolicy::kWinograd2},
           {"WG-F4", ConvPolicy::kWinograd4}}) {
    const OpSpace space = m.net.total_op_space(policy);
    ops.add_row({name, Table::fmt(space.n_mul / 1e6, 2),
                 Table::fmt(space.n_add / 1e6, 2),
                 Table::fmt(static_cast<double>(st.n_mul) / space.n_mul, 2)});
  }
  emit(ops, "Ablation: op structure by tile size (VGG19)", "ablation_ops");

  // Fault tolerance across the knee.
  const std::vector<double> bers = log_ber_grid(3e-9, 3e-7, env.full ? 7 : 4);
  // One runner for the three tile sizes: one golden per image serves all.
  const CampaignRunner runner(m.net, m.data);
  Table acc({"ber", "st_acc", "wg_f2_acc", "wg_f4_acc"});
  std::vector<std::vector<SweepPoint>> curves;
  for (const ConvPolicy policy :
       {ConvPolicy::kDirect, ConvPolicy::kWinograd2, ConvPolicy::kWinograd4}) {
    SweepOptions options;
    options.bers = bers;
    options.policy = policy;
    options.seed = env.seed + 9;
    options.store = store_options(cli.store_dir, env);
    curves.push_back(accuracy_sweep(runner, options));
  }
  for (std::size_t i = 0; i < bers.size(); ++i) {
    acc.add_row({Table::fmt_sci(bers[i]),
                 Table::fmt(curves[0][i].accuracy * 100, 2),
                 Table::fmt(curves[1][i].accuracy * 100, 2),
                 Table::fmt(curves[2][i].accuracy * 100, 2)});
  }
  emit(acc, "Ablation: accuracy vs BER by tile size (VGG19 int16)",
       "ablation_tile_size");
  std::printf(
      "takeaway: F(2,3) pairs mul reduction with unit-magnitude inverse "
      "coefficients; F(4,3) multiplies less but amplifies each fault across "
      "its tile, eroding the advantage.\n");
  return 0;
}
