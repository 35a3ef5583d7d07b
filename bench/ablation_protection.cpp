// Ablation — protection-scheme comparison on one VGG19 conv layer:
// fine-grained TMR (the paper's proposal) vs checksum ABFT (the related-
// work baseline [17][1]) vs full-layer TMR.
//
// Reported per scheme: extra-op overhead relative to the unprotected layer
// and the residual output corruption after protection at a fixed BER.
// Expected shape: ABFT is far cheaper than full TMR but leaves sub-quantum
// residuals and pays a fault-rate-dependent recompute cost; fine-grained
// TMR dials overhead continuously against coverage — the flexibility the
// paper's planner exploits.
#include "bench_util.h"
#include "common/rng.h"
#include "conv/engine.h"
#include "core/protect/abft.h"
#include "fault/site_sampler.h"

using namespace winofault;
using namespace winofault::bench;

namespace {

std::int64_t corrupted_values(const TensorI32& a, const TensorI32& b) {
  std::int64_t n = 0;
  for (std::int64_t i = 0; i < a.numel(); ++i) n += a[i] != b[i];
  return n;
}

}  // namespace

int main(int argc, char** argv) {
  const CliOptions cli = parse_cli(argc, argv);
  note_store_unused(cli, "single-layer kernel study, no campaign to persist");
  reject_dist_cli(cli, argv[0],
                  "single-layer kernel study, no campaign to distribute");
  const BenchEnv env = bench_env(argv[0]);
  // A mid-network VGG19 layer (64->64 at 8x8 under default width 0.25...
  // use the real shape scaled): 32 channels, 16x16.
  ConvDesc desc;
  desc.in_c = desc.out_c = 32;
  desc.in_h = desc.in_w = 16;

  Rng rng(env.seed);
  TensorI32 input(desc.in_shape()), weights(desc.weight_shape());
  for (auto& v : input.flat())
    v = static_cast<std::int32_t>(rng.next_below(65536)) - 32768;
  for (auto& v : weights.flat())
    v = static_cast<std::int32_t>(rng.next_below(65536)) - 32768;
  std::vector<std::int64_t> bias(static_cast<std::size_t>(desc.out_c), 500);
  ConvData data;
  data.input = &input;
  data.weights = &weights;
  data.bias = &bias;
  data.dtype = DType::kInt16;
  data.acc_scale = 1.0 / 4096;
  data.out_quant = QuantParams{60.0, DType::kInt16};

  const OpSpace space = direct_engine().op_space(desc, DType::kInt16);
  const TensorI32 golden = direct_engine().forward(desc, data);
  const double ber = 25.0 / static_cast<double>(space.total_bits());
  SiteSampler sampler(FaultModel{ber});
  ConvAbft abft;
  const int rounds = env.full ? 200 : 50;

  struct Scheme {
    const char* name;
    double overhead;  // extra ops / layer ops
    double residual_sum = 0;
    double flags = 0;
  };
  Scheme unprotected{"unprotected", 0.0};
  Scheme abft_scheme{
      "ABFT (checksum+recompute)",
      static_cast<double>(abft.overhead_ops(desc, DType::kInt16).total_ops()) /
          static_cast<double>(space.total_ops())};
  Scheme tmr_mul{"fine-grained TMR (muls only)",
                 2.0 * static_cast<double>(space.n_mul) /
                     static_cast<double>(space.total_ops())};
  Scheme tmr_full{"full TMR", 2.0};

  const ProtectionSet protect_muls(1.0, 0.0);
  const ProtectionSet protect_all(1.0, 1.0);
  Rng fault_rng(env.seed + 1);
  for (int round = 0; round < rounds; ++round) {
    // Same fault stream for every scheme.
    const std::uint64_t stream = fault_rng.next();
    {
      Rng r(stream);
      TensorI32 out = golden;
      direct_engine().apply_faults(desc, data, sampler.sample(space, r), out);
      unprotected.residual_sum += corrupted_values(golden, out);
    }
    {
      Rng r(stream);
      TensorI32 out = golden;
      direct_engine().apply_faults(desc, data, sampler.sample(space, r), out);
      const AbftResult result = abft.protect(desc, data, out);
      abft_scheme.residual_sum += corrupted_values(golden, out);
      abft_scheme.flags += static_cast<double>(result.flagged_pixels);
    }
    {
      Rng r(stream);
      TensorI32 out = golden;
      direct_engine().apply_faults(
          desc, data, sampler.sample(space, r, &protect_muls), out);
      tmr_mul.residual_sum += corrupted_values(golden, out);
    }
    {
      Rng r(stream);
      TensorI32 out = golden;
      direct_engine().apply_faults(
          desc, data, sampler.sample(space, r, &protect_all), out);
      tmr_full.residual_sum += corrupted_values(golden, out);
    }
  }

  Table table({"scheme", "extra_ops_ratio", "avg_corrupted_outputs",
               "avg_flagged_pixels"});
  for (const Scheme& s : {unprotected, abft_scheme, tmr_mul, tmr_full}) {
    table.add_row({s.name, Table::fmt(s.overhead, 3),
                   Table::fmt(s.residual_sum / rounds, 2),
                   Table::fmt(s.flags / rounds, 2)});
  }
  emit(table,
       "Ablation: protection schemes on one conv layer (BER " +
           Table::fmt_sci(ber) + ", " + std::to_string(rounds) + " rounds)",
       "ablation_protection");
  std::printf(
      "takeaway: ABFT detects/corrects visible faults at ~%.0f%% extra ops; "
      "fine-grained TMR trades overhead for coverage continuously, which is "
      "what the planner needs.\n",
      abft_scheme.overhead * 100);
  return 0;
}
