// Micro-benchmarks (google-benchmark): raw kernel throughput of the three
// convolution engines on zoo-representative shapes, plus fault-replay cost.
// Context for the paper's premise that Winograd computing is "almost free":
// the mul-count reduction shows up directly in kernel time. The direct
// engine rows come in two flavors — the pre-GEMM reference loop and the
// im2col + blocked GEMM fast path the engine now routes through — so the
// fast path's speedup is visible in the same table, as is the cost of a
// cached incremental replay trial next to a scratch forward.
//
// On top of the google-benchmark table, main() hand-times the SIMD
// dispatch levels (scalar vs AVX2 vs AVX-512 GEMM) and writes the numbers
// to BENCH_kernels.json for the CI perf trajectory. Each timed level
// doubles as a bit-identity oracle — the process exits non-zero if any ISA
// level diverges from the reference output.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>

#include "bench_util.h"
#include "common/rng.h"
#include "conv/direct_conv.h"
#include "conv/engine.h"
#include "conv/gemm_kernel.h"
#include "fault/site_sampler.h"
#include "nn/evaluator.h"
#include "tensor/quantize.h"

namespace winofault {
namespace {

struct Problem {
  ConvDesc desc;
  TensorI32 input;
  TensorI32 weights;
  std::vector<std::int64_t> bias;
  ConvData data() const {
    ConvData d;
    d.input = &input;
    d.weights = &weights;
    d.bias = &bias;
    d.dtype = DType::kInt16;
    d.acc_scale = 1.0 / 4096;
    d.out_quant = QuantParams{0.25, DType::kInt16};
    return d;
  }
};

Problem make_problem(std::int64_t c, std::int64_t hw, std::int64_t k) {
  Problem p;
  p.desc.in_c = c;
  p.desc.in_h = hw;
  p.desc.in_w = hw;
  p.desc.out_c = c;
  p.desc.kh = p.desc.kw = k;
  p.desc.pad = k / 2;
  p.input = TensorI32(p.desc.in_shape());
  p.weights = TensorI32(p.desc.weight_shape());
  Rng rng(99);
  for (auto& v : p.input.flat())
    v = static_cast<std::int32_t>(rng.next_below(65536)) - 32768;
  for (auto& v : p.weights.flat())
    v = static_cast<std::int32_t>(rng.next_below(65536)) - 32768;
  p.bias.assign(static_cast<std::size_t>(p.desc.out_c), 100);
  return p;
}

void BM_DirectConvRef(benchmark::State& state) {
  const Problem p = make_problem(state.range(0), state.range(1), 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(direct_forward_reference(p.desc, p.data()));
  }
  state.SetItemsProcessed(state.iterations() * p.desc.macs());
}

void BM_DirectConvGemm(benchmark::State& state) {
  const Problem p = make_problem(state.range(0), state.range(1), 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(direct_forward_gemm(p.desc, p.data()));
  }
  state.SetItemsProcessed(state.iterations() * p.desc.macs());
}

// The blocked GEMM at a forced dispatch level (arg 2: GemmIsa value).
// Levels the CPU cannot execute are skipped, not silently clamped, so an
// AVX2-only runner's table can't masquerade as AVX-512 numbers.
void BM_DirectConvGemmIsa(benchmark::State& state) {
  const GemmIsa isa = static_cast<GemmIsa>(state.range(2));
  if (isa > best_supported_gemm_isa()) {
    state.SkipWithError("ISA not supported on this CPU");
    return;
  }
  const GemmIsa prev = active_gemm_isa();
  set_gemm_isa(isa);
  state.SetLabel(gemm_isa_name(isa));
  const Problem p = make_problem(state.range(0), state.range(1), 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(direct_forward_gemm(p.desc, p.data()));
  }
  state.SetItemsProcessed(state.iterations() * p.desc.macs());
  set_gemm_isa(prev);
}

void BM_WinogradF2(benchmark::State& state) {
  const Problem p = make_problem(state.range(0), state.range(1), 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(winograd_engine(2).forward(p.desc, p.data()));
  }
  state.SetItemsProcessed(state.iterations() * p.desc.macs());
}

void BM_WinogradF4(benchmark::State& state) {
  const Problem p = make_problem(state.range(0), state.range(1), 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(winograd_engine(4).forward(p.desc, p.data()));
  }
  state.SetItemsProcessed(state.iterations() * p.desc.macs());
}

void BM_Direct5x5(benchmark::State& state) {
  const Problem p = make_problem(state.range(0), state.range(1), 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(direct_engine().forward(p.desc, p.data()));
  }
  state.SetItemsProcessed(state.iterations() * p.desc.macs());
}

// Cost of fault replay on top of a golden forward (16 sites).
void BM_WinogradFaultReplay(benchmark::State& state) {
  const Problem p = make_problem(32, 16, 3);
  const auto& engine = winograd_engine(2);
  const OpSpace space = engine.op_space(p.desc, DType::kInt16);
  SiteSampler sampler(FaultModel{16.0 / space.total_bits()});
  Rng rng(7);
  TensorI32 out = engine.forward(p.desc, p.data());
  for (auto _ : state) {
    const auto sites = sampler.sample(space, rng);
    engine.apply_faults(p.desc, p.data(), sites, out);
    benchmark::DoNotOptimize(out);
  }
}

// End-to-end cost of one injection trial on a small network: scratch
// forward vs incremental replay against a shared golden cache.
Network trial_net() {
  Network net("bench-trial", DType::kInt16);
  Rng rng(41);
  int x = net.add_input(Shape{1, 3, 32, 32});
  x = net.add_conv(x, 16, 3, 1, 1, rng);
  x = net.add_conv(x, 16, 3, 1, 1, rng);
  x = net.add_maxpool(x, 2, 2);
  x = net.add_conv(x, 32, 3, 1, 1, rng);
  x = net.add_global_avgpool(x);
  x = net.add_flatten(x);
  x = net.add_linear(x, 10, rng);
  net.set_output(x);
  net.calibrate(make_images(net.input_shape(), 2, 12));
  return net;
}

void BM_TrialScratch(benchmark::State& state) {
  const Network net = trial_net();
  const TensorF image = make_images(net.input_shape(), 1, 9)[0];
  FaultConfig config;
  config.ber = 1e-7;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    FaultSession session(config, seed++);
    ExecContext ctx;
    ctx.session = &session;
    benchmark::DoNotOptimize(net.predict(image, ctx));
  }
}

void BM_TrialCachedReplay(benchmark::State& state) {
  const Network net = trial_net();
  const TensorF image = make_images(net.input_shape(), 1, 9)[0];
  const GoldenCache golden = net.make_golden(image, ConvPolicy::kDirect);
  FaultConfig config;
  config.ber = 1e-7;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    FaultSession session(config, seed++);
    benchmark::DoNotOptimize(net.predict_replay(golden, session));
  }
}

BENCHMARK(BM_DirectConvRef)->Args({16, 32})->Args({64, 16});
BENCHMARK(BM_DirectConvGemm)->Args({16, 32})->Args({64, 16});
BENCHMARK(BM_DirectConvGemmIsa)
    ->Args({64, 16, 0})
    ->Args({64, 16, 1})
    ->Args({64, 16, 2});
BENCHMARK(BM_WinogradF2)->Args({16, 32})->Args({64, 16});
BENCHMARK(BM_WinogradF4)->Args({16, 32})->Args({64, 16});
BENCHMARK(BM_Direct5x5)->Args({16, 16});
BENCHMARK(BM_WinogradFaultReplay);
BENCHMARK(BM_TrialScratch);
BENCHMARK(BM_TrialCachedReplay);

// ---- BENCH_kernels.json: hand-timed perf trajectory ----------------------

// Seconds per call of `fn`, amortized: repeats until >= `min_s` of wall
// time so fast kernels aren't quantized to the clock resolution.
template <typename Fn>
double time_per_call(Fn&& fn, double min_s = 0.2) {
  fn();  // warm caches, resolve dispatch
  std::int64_t reps = 1;
  for (;;) {
    const auto t0 = std::chrono::steady_clock::now();
    for (std::int64_t r = 0; r < reps; ++r) fn();
    const double s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    if (s >= min_s) return s / static_cast<double>(reps);
    reps = s > 0 ? std::max<std::int64_t>(
                       reps * 2,
                       static_cast<std::int64_t>(
                           static_cast<double>(reps) * min_s / s * 1.2))
                 : reps * 16;
  }
}

// Per-ISA GEMM GMAC/s, with every compared output checked bit-identical
// to the reference. Returns false
// (and the process exits 1) on any divergence — the perf file must never
// report throughput of a kernel that computes different bits.
bool write_bench_kernels_json() {
  bool ok = true;
  Json json = Json::object();
  const GemmIsa best = best_supported_gemm_isa();
  json.set("best_isa", Json::str(gemm_isa_name(best)));

  // GEMM dispatch levels on the VGG-ish shape (64c 16x16 3x3).
  const Problem p = make_problem(64, 16, 3);
  const TensorI32 reference = direct_forward_reference(p.desc, p.data());
  const double gmacs_scale =
      static_cast<double>(p.desc.macs()) / 1e9;
  const GemmIsa isas[] = {GemmIsa::kScalar, GemmIsa::kAvx2,
                          GemmIsa::kAvx512};
  for (const GemmIsa isa : isas) {
    const std::string key =
        std::string("gemm_") + gemm_isa_name(isa) + "_gmacs";
    if (isa > best) {
      json.set(key, Json::number(0.0));
      continue;
    }
    set_gemm_isa(isa);
    if (!(direct_forward_gemm(p.desc, p.data()) == reference)) {
      std::fprintf(stderr,
                   "FAIL: %s GEMM diverges from instrumented reference\n",
                   gemm_isa_name(isa));
      ok = false;
    }
    json.set(key, Json::number(gmacs_scale /
                               time_per_call([&] {
                                 benchmark::DoNotOptimize(
                                     direct_forward_gemm(p.desc, p.data()));
                               })));
  }
  set_gemm_isa(best);

  json.set("bit_identity_ok", Json::integer(ok ? 1 : 0));
  bench::write_bench_json("BENCH_kernels.json", json);
  return ok;
}

}  // namespace
}  // namespace winofault

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return winofault::write_bench_kernels_json() ? 0 : 1;
}
