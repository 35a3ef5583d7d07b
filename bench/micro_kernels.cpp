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
// dispatch levels (scalar vs AVX2 vs AVX-512 GEMM, delta kernel and span
// requantize) and each engine's fault replay per site, and writes the
// numbers to BENCH_kernels.json for the CI perf trajectory. Each timed row
// doubles as a bit-identity oracle — the process exits non-zero if any ISA
// level or replay diverges from the instrumented reference or the scalar
// level.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "conv/direct_conv.h"
#include "conv/engine.h"
#include "conv/gemm_kernel.h"
#include "conv/instrumented_ref.h"
#include "conv/winograd_conv.h"
#include "fault/site_sampler.h"
#include "nn/dataset.h"
#include "nn/fault_session.h"
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
    benchmark::DoNotOptimize(
        direct_forward_instrumented(p.desc, p.data(), {}));
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

// Seconds per call of `fn`: the median of kTimings timings, each of one
// batch of calls long enough (>= `min_s` of wall time) that fast kernels
// aren't quantized to the clock resolution. On a shared host a median of
// repeated timings is steadier than one timing, which swung by up to ~60%
// between runs.
template <typename Fn>
double time_per_call(Fn&& fn, double min_s = 0.05) {
  constexpr int kTimings = 5;
  fn();  // warm caches, resolve dispatch
  const auto batch = [&](std::int64_t reps) {
    const auto t0 = std::chrono::steady_clock::now();
    for (std::int64_t r = 0; r < reps; ++r) fn();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  };
  std::int64_t reps = 1;
  for (double s = batch(reps); s < min_s; s = batch(reps)) {
    reps = s > 0 ? std::max<std::int64_t>(
                       reps * 2,
                       static_cast<std::int64_t>(
                           static_cast<double>(reps) * min_s / s * 1.2))
                 : reps * 16;
  }
  std::vector<double> timings;
  for (int t = 0; t < kTimings; ++t) {
    timings.push_back(batch(reps) / static_cast<double>(reps));
  }
  std::nth_element(timings.begin(), timings.begin() + kTimings / 2,
                   timings.end());
  return timings[kTimings / 2];
}

// Per-ISA GEMM and delta GMAC/s (a dense and a sparse delta) and requantize
// ns per element, with every compared output checked bit-identical to the
// reference. Returns false (and the process exits 1) on any divergence —
// the perf file must never report throughput of a kernel that computes
// different bits.
bool write_bench_kernels_json() {
  bool ok = true;
  Json json = Json::object();
  const GemmIsa best = best_supported_gemm_isa();
  json.set("best_isa", Json::str(gemm_isa_name(best)));

  // GEMM dispatch levels on the VGG-ish shape (64c 16x16 3x3).
  const Problem p = make_problem(64, 16, 3);
  const TensorI32 reference =
      direct_forward_instrumented(p.desc, p.data(), {});
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

  // Fault replay on the same shape: one fixed, seeded schedule through each
  // engine's apply_faults on its golden output, checked against the
  // instrumented reference. Winograd gets its filter bank narrowed to int32
  // as ConvLayer caches it. apply_faults overwrites exactly the outputs it
  // re-derives, so repeating it on one tensor repeats the same work.
  constexpr int kReplaySites = 64;
  for (const int m : {0, 2}) {
    const ConvEngine& engine = m == 0 ? direct_engine() : winograd_engine(m);
    const std::string label = m == 0 ? "direct" : "winograd2";
    ConvData data = p.data();
    std::vector<std::int32_t> bank;
    if (m != 0) {
      const std::vector<std::int64_t> wide =
          static_cast<const WinogradConvEngine&>(engine).transform_filters(
              p.desc, data);
      bank.assign(wide.begin(), wide.end());
      data.wg_bank32_f2 = &bank;
    }
    const OpSpace space = engine.op_space(p.desc, DType::kInt16);
    Rng rng(0xfa17 + static_cast<std::uint64_t>(m));
    std::vector<FaultSite> sites;
    for (int s = 0; s < kReplaySites; ++s) {
      FaultSite site;
      const bool mul =
          rng.next_below(static_cast<std::uint64_t>(space.total_ops())) <
          static_cast<std::uint64_t>(space.n_mul);
      site.kind = mul ? OpKind::kMul : OpKind::kAdd;
      site.op_index = static_cast<std::int64_t>(rng.next_below(
          static_cast<std::uint64_t>(mul ? space.n_mul : space.n_add)));
      site.bit = static_cast<int>(rng.next_below(
          static_cast<std::uint64_t>(mul ? space.mul_bits : space.add_bits)));
      sites.push_back(site);
    }
    TensorI32 out = engine.forward(p.desc, data);
    engine.apply_faults(p.desc, data, sites, out);
    const TensorI32 faulted =
        m == 0 ? direct_forward_instrumented(p.desc, data, sites)
               : winograd_forward_instrumented(m, p.desc, data, sites);
    if (!(out == faulted)) {
      std::fprintf(stderr,
                   "FAIL: %s apply_faults diverges from instrumented "
                   "reference\n",
                   label.c_str());
      ok = false;
    }
    json.set("apply_faults_us_per_site_" + label,
             Json::number(time_per_call([&] {
                            engine.apply_faults(p.desc, data, sites, out);
                            benchmark::DoNotOptimize(out.data());
                            benchmark::ClobberMemory();
                          }) *
                          1e6 / kReplaySites));
  }

  // The delta kernel on VGG19's block-4 geometry (128 -> 128 channels, 4x4,
  // 3x3), through direct_delta_acc at each level, checked bit for bit
  // against the scalar level: a dense narrow delta between ReLU outputs
  // (every input element changed by 1..3; `delta_gmacs_<isa>`), and the
  // same with 22% of the input elements changed, the share that differs
  // from golden at a dirty conv on deep_replay, where the scan and the
  // segment walk show (`delta_gmacs_sparse_<isa>`). MACs are the terms the
  // reached positions sum times out_c.
  {
    ConvDesc desc;
    desc.in_c = desc.out_c = 128;
    desc.in_h = desc.in_w = 4;
    desc.kh = desc.kw = 3;
    desc.pad = 1;
    Rng rng(0xde17a);
    TensorI32 weights(desc.weight_shape());
    for (auto& v : weights.flat())
      v = static_cast<std::int32_t>(rng.next_below(65536)) - 32768;
    TensorI32 golden(desc.in_shape());
    for (auto& v : golden.flat())
      v = static_cast<std::int32_t>(rng.next_below(32765));
    TensorI32 dense = golden;
    for (auto& v : dense.flat())
      v += 1 + static_cast<std::int32_t>(rng.next_below(3));
    TensorI32 sparse = golden;
    for (std::int64_t i = 0; i < sparse.numel(); ++i) {
      if (rng.bernoulli(0.22)) sparse[i] = dense[i];
    }
    const std::vector<std::int16_t> wt = transpose_weights_i16(desc, weights);
    for (const bool is_sparse : {false, true}) {
      const TensorI32& input = is_sparse ? sparse : dense;
      std::int64_t terms = 0;
      for (std::int64_t oy = 0; oy < desc.out_h(); ++oy) {
        for (std::int64_t ox = 0; ox < desc.out_w(); ++ox) {
          for (std::int64_t ic = 0; ic < desc.in_c; ++ic) {
            for (std::int64_t ky = 0; ky < desc.kh; ++ky) {
              for (std::int64_t kx = 0; kx < desc.kw; ++kx) {
                const std::int64_t iy = oy - desc.pad + ky;
                const std::int64_t ix = ox - desc.pad + kx;
                terms += iy >= 0 && iy < desc.in_h && ix >= 0 &&
                         ix < desc.in_w &&
                         input.at(0, ic, iy, ix) != golden.at(0, ic, iy, ix);
              }
            }
          }
        }
      }
      const double delta_gmacs =
          static_cast<double>(terms * desc.out_c) / 1e9;
      const std::string row = is_sparse ? "delta_gmacs_sparse_" : "delta_gmacs_";
      set_gemm_isa(GemmIsa::kScalar);
      const ConvDelta reference = direct_delta_acc(desc, input, golden, wt);
      for (const GemmIsa isa : isas) {
        const std::string key = row + gemm_isa_name(isa);
        if (isa > best) {
          json.set(key, Json::number(0.0));
          continue;
        }
        set_gemm_isa(isa);
        const ConvDelta delta = direct_delta_acc(desc, input, golden, wt);
        if (delta.positions != reference.positions ||
            delta.acc != reference.acc) {
          std::fprintf(stderr,
                       "FAIL: %s delta kernel diverges from the scalar level "
                       "(%s)\n",
                       gemm_isa_name(isa), is_sparse ? "sparse" : "dense");
          ok = false;
        }
        json.set(key, Json::number(delta_gmacs / time_per_call([&] {
                                     benchmark::DoNotOptimize(
                                         direct_delta_acc(desc, input, golden,
                                                          wt));
                                   })));
      }
    }
  }

  // The span requantize on 4096 accumulators that mostly land inside the
  // int16 range, checked bit for bit against the scalar level.
  {
    constexpr std::int64_t kSpan = 4096;
    Rng rng(0x5ca1e);
    std::vector<std::int64_t> accs(kSpan);
    for (auto& a : accs)
      a = static_cast<std::int64_t>(rng.next_below(1u << 25)) - (1 << 24);
    const QuantParams quant{0.25, DType::kInt16};
    const double acc_scale = 1.0 / 4096;
    std::vector<std::int32_t> reference(kSpan), out(kSpan);
    set_gemm_isa(GemmIsa::kScalar);
    requantize_span(accs.data(), kSpan, acc_scale, quant, reference.data());
    for (const GemmIsa isa : isas) {
      const std::string key =
          std::string("requantize_ns_per_elem_") + gemm_isa_name(isa);
      if (isa > best) {
        json.set(key, Json::number(0.0));
        continue;
      }
      set_gemm_isa(isa);
      requantize_span(accs.data(), kSpan, acc_scale, quant, out.data());
      if (out != reference) {
        std::fprintf(stderr,
                     "FAIL: %s requantize_span diverges from the scalar "
                     "level\n",
                     gemm_isa_name(isa));
        ok = false;
      }
      json.set(key, Json::number(time_per_call([&] {
                                   requantize_span(accs.data(), kSpan,
                                                   acc_scale, quant,
                                                   out.data());
                                   benchmark::DoNotOptimize(out.data());
                                   benchmark::ClobberMemory();
                                 }) *
                                 1e9 / kSpan));
    }
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
