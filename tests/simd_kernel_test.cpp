// Exactness matrix for the explicit SIMD microkernels: every dispatch
// level (scalar / AVX2 / AVX-512, forced via set_gemm_isa) must be
// bit-identical to the instrumented reference on shapes covering the tile
// kernel, its e-tails, and the small-extent dot kernel, and the delta
// kernel to a scalar reference on adversarial operands. Plus the
// work-stealing determinism contract of parallel_for: each index runs
// exactly once and results never depend on the thread count or steal
// interleaving.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "conv/direct_conv.h"
#include "conv/gemm_kernel.h"
#include "conv/instrumented_ref.h"
#include "test_util.h"

namespace winofault {
namespace {

using testing::ConvProblem;
using testing::expect_tensors_equal;
using testing::make_problem;

std::vector<GemmIsa> supported_isas() {
  std::vector<GemmIsa> isas{GemmIsa::kScalar};
  if (best_supported_gemm_isa() >= GemmIsa::kAvx2)
    isas.push_back(GemmIsa::kAvx2);
  if (best_supported_gemm_isa() >= GemmIsa::kAvx512)
    isas.push_back(GemmIsa::kAvx512);
  return isas;
}

// Restores the startup dispatch level even when an assertion fails, so one
// test's forced ISA can't leak into the rest of the suite.
struct IsaGuard {
  GemmIsa prev = active_gemm_isa();
  ~IsaGuard() { set_gemm_isa(prev); }
};

struct GemmShape {
  std::int64_t in_c, hw, out_c, k;
};

TEST(SimdKernel, AllIsaLevelsMatchInstrumentedReference) {
  IsaGuard guard;
  // hw values chosen so e_count crosses the kernels' regimes: 2x2 (dot
  // kernel), odd e-tails below/above one vector width, and wide extents
  // (tile kernel main loop). out_c=5/9 exercise the 4-row tile's row tail.
  const GemmShape shapes[] = {
      {3, 2, 8, 3},    // e=4: dot-kernel path, scalar tail r
      {16, 2, 128, 3},  // e=4, deep-layer window (1152): dot main loop
      {8, 3, 5, 3},    // e=9: dot path with row tail
      {4, 5, 9, 1},    // 1x1 conv, e=25
      {6, 7, 12, 3},   // e=49: tile kernel with e-tail past vector width
      {5, 12, 7, 5},   // 5x5 window, e=144
      {12, 16, 16, 3},  // e=256: tile main loop
  };
  for (const GemmIsa isa : supported_isas()) {
    ASSERT_EQ(set_gemm_isa(isa), isa);
    for (const GemmShape& s : shapes) {
      Rng rng(0x5EED0000u + static_cast<std::uint64_t>(
                                s.in_c * 1000 + s.hw * 10 + s.k));
      ConvDesc desc;
      desc.in_c = s.in_c;
      desc.in_h = s.hw;
      desc.in_w = s.hw;
      desc.out_c = s.out_c;
      desc.kh = desc.kw = s.k;
      desc.pad = s.k / 2;
      const ConvProblem p = make_problem(rng, desc);
      const TensorI32 reference =
          direct_forward_instrumented(desc, p.data(), {});
      const TensorI32 gemm = direct_forward_gemm(desc, p.data());
      SCOPED_TRACE(std::string("isa=") + gemm_isa_name(isa));
      expect_tensors_equal(gemm, reference, "gemm vs instrumented ref");
    }
  }
}

TEST(SimdKernel, ForcingAboveCpuCapabilityClampsDown) {
  IsaGuard guard;
  const GemmIsa best = best_supported_gemm_isa();
  // Requesting the top level never installs more than the CPU has; on
  // full-AVX-512 machines this degenerates to an exact-match check.
  EXPECT_LE(set_gemm_isa(GemmIsa::kAvx512), best);
  EXPECT_EQ(set_gemm_isa(GemmIsa::kScalar), GemmIsa::kScalar);
}

// ---- Delta kernel ---------------------------------------------------------

// W·(x' - x) of one output element, straight from the conv definition.
std::int64_t reference_delta(const ConvDesc& desc, const TensorI32& weights,
                             const TensorI32& input, const TensorI32& golden,
                             std::int64_t oc, std::int64_t oy,
                             std::int64_t ox) {
  std::int64_t acc = 0;
  for (std::int64_t ic = 0; ic < desc.in_c; ++ic) {
    for (std::int64_t ky = 0; ky < desc.kh; ++ky) {
      const std::int64_t iy = oy * desc.stride - desc.pad + ky;
      for (std::int64_t kx = 0; kx < desc.kw; ++kx) {
        const std::int64_t ix = ox * desc.stride - desc.pad + kx;
        if (iy < 0 || iy >= desc.in_h || ix < 0 || ix >= desc.in_w) continue;
        acc += std::int64_t{weights.at(oc, ic, ky, kx)} *
               (std::int64_t{input.at(0, ic, iy, ix)} -
                golden.at(0, ic, iy, ix));
      }
    }
  }
  return acc;
}

// direct_delta_acc against the reference: every output element's delta,
// and exactly the positions whose window holds a changed element.
void expect_delta_matches_reference(const ConvDesc& desc,
                                    const TensorI32& weights,
                                    const TensorI32& input,
                                    const TensorI32& golden,
                                    const std::string& what) {
  const std::vector<std::int16_t> wt = transpose_weights_i16(desc, weights);
  const ConvDelta delta = direct_delta_acc(desc, input, golden, wt);
  ASSERT_EQ(delta.acc.size(),
            delta.positions.size() * static_cast<std::size_t>(desc.out_c))
      << what;
  const std::int64_t ow = desc.out_w();
  std::vector<std::int64_t> slot(
      static_cast<std::size_t>(desc.out_h() * ow), -1);
  for (std::size_t s = 0; s < delta.positions.size(); ++s) {
    ASSERT_TRUE(s == 0 || delta.positions[s] > delta.positions[s - 1])
        << what << ": positions not ascending";
    slot[static_cast<std::size_t>(delta.positions[s])] =
        static_cast<std::int64_t>(s);
  }
  for (std::int64_t oy = 0; oy < desc.out_h(); ++oy) {
    for (std::int64_t ox = 0; ox < ow; ++ox) {
      const std::int64_t s = slot[static_cast<std::size_t>(oy * ow + ox)];
      bool window_changed = false;
      for (std::int64_t ic = 0; ic < desc.in_c; ++ic) {
        for (std::int64_t ky = 0; ky < desc.kh; ++ky) {
          for (std::int64_t kx = 0; kx < desc.kw; ++kx) {
            const std::int64_t iy = oy * desc.stride - desc.pad + ky;
            const std::int64_t ix = ox * desc.stride - desc.pad + kx;
            window_changed |= iy >= 0 && iy < desc.in_h && ix >= 0 &&
                              ix < desc.in_w &&
                              input.at(0, ic, iy, ix) !=
                                  golden.at(0, ic, iy, ix);
          }
        }
      }
      ASSERT_EQ(s >= 0, window_changed)
          << what << ": position (" << oy << ", " << ox << ")";
      for (std::int64_t oc = 0; oc < desc.out_c; ++oc) {
        const std::int64_t got =
            s < 0 ? 0
                  : delta.acc[static_cast<std::size_t>(s * desc.out_c + oc)];
        ASSERT_EQ(got, reference_delta(desc, weights, input, golden, oc, oy,
                                       ox))
            << what << ": oc " << oc << " at (" << oy << ", " << ox << ")";
      }
    }
  }
}

struct DeltaShape {
  std::int64_t in_c, hw, out_c, k, stride, pad;
};

// Every ISA level on adversarial operands: |delta| = 65535 (x' = -32768
// against a golden 32767 and back) against weights of -32768 and 32767,
// out_c off the vector widths, changed elements on padded edges, stride 2,
// 1x1, 5x5 and linear geometries, and an unchanged input.
TEST(SimdKernel, DeltaKernelMatchesReferenceAtEveryIsa) {
  IsaGuard guard;
  const DeltaShape shapes[] = {
      {3, 6, 6, 3, 1, 1},    // padded edges; out_c below every width
      {5, 7, 18, 3, 2, 1},   // stride 2; 18 = 2 AVX-512 registers + 2
      {4, 5, 18, 1, 1, 0},   // 1x1: the zero-copy im2col geometry
      {3, 9, 6, 1, 2, 0},    // 1x1 stride 2
      {6, 5, 64, 3, 1, 1},   // whole blocks only: 1 AVX-512, 2 AVX2
      {2, 9, 70, 3, 2, 0},   // a full 64-channel block + 6
      {3, 6, 6, 5, 1, 2},    // 5x5, pad 2: every tap crosses an edge
      {40, 1, 100, 1, 1, 0},  // linear head: 64 + 32 + 4 channels
  };
  for (const GemmIsa isa : supported_isas()) {
    ASSERT_EQ(set_gemm_isa(isa), isa);
    for (const DeltaShape& sh : shapes) {
      ConvDesc desc;
      desc.in_c = sh.in_c;
      desc.in_h = desc.in_w = sh.hw;
      desc.out_c = sh.out_c;
      desc.kh = desc.kw = sh.k;
      desc.stride = sh.stride;
      desc.pad = sh.pad;
      Rng rng(0xDE17A000u + static_cast<std::uint64_t>(
                                sh.in_c * 1000 + sh.out_c * 10 + sh.k));
      TensorI32 weights(desc.weight_shape());
      std::int64_t w_index = 0;
      for (std::int32_t& w : weights.flat()) {
        // Alternate the two extremes with random weights.
        const std::int64_t pick = w_index++ % 3;
        w = pick == 0   ? -32768
            : pick == 1 ? 32767
                        : static_cast<std::int32_t>(
                              static_cast<std::int64_t>(rng.next_below(65536)) -
                              32768);
      }
      TensorI32 golden(desc.in_shape());
      for (std::int32_t& v : golden.flat()) {
        v = rng.bernoulli(0.5) ? 32767 : -32768;
      }
      const std::string what = std::string("isa=") + gemm_isa_name(isa) +
                               " in_c=" + std::to_string(sh.in_c) +
                               " hw=" + std::to_string(sh.hw) +
                               " out_c=" + std::to_string(sh.out_c) +
                               " k=" + std::to_string(sh.k) +
                               " s=" + std::to_string(sh.stride);
      // Unchanged input: no position is reached.
      expect_delta_matches_reference(desc, weights, golden, golden,
                                     what + " (no change)");
      // Every element flipped to the other extreme: delta = -/+65535
      // everywhere, the largest sums the kernel can see.
      TensorI32 flipped = golden;
      for (std::int32_t& v : flipped.flat()) v = v == 32767 ? -32768 : 32767;
      expect_delta_matches_reference(desc, weights, flipped, golden,
                                     what + " (all flipped)");
      // A sparse change: a few extremes, the corner elements (padding
      // neighbours) among them, and a few small deltas.
      TensorI32 sparse = golden;
      const std::int64_t hw = sh.hw * sh.hw;
      for (std::int64_t ic = 0; ic < desc.in_c; ic += 2) {
        sparse[ic * hw] = -sparse[ic * hw] - 1;  // 32767 <-> -32768
        sparse[ic * hw + hw - 1] = -sparse[ic * hw + hw - 1] - 1;
      }
      for (int k = 0; k < 3; ++k) {
        const std::int64_t i =
            static_cast<std::int64_t>(rng.next_below(
                static_cast<std::uint64_t>(sparse.numel())));
        sparse[i] += sparse[i] > 0 ? -7 : 7;
      }
      expect_delta_matches_reference(desc, weights, sparse, golden,
                                     what + " (sparse)");
    }
  }
}

// ---- Work-stealing determinism -------------------------------------------

// Each index must execute exactly once regardless of how thieves carve up
// the slots, and an i-keyed body must produce thread-count-independent
// results. Uneven per-index cost provokes actual stealing.
TEST(WorkStealing, EachIndexRunsExactlyOnceUnderUnevenLoad) {
  const std::int64_t n = 40000;
  for (const int threads : {1, 2, 3, 8}) {
    std::vector<std::atomic<int>> runs(static_cast<std::size_t>(n));
    for (auto& r : runs) r.store(0);
    parallel_for(n, threads, [&](std::int64_t i) {
      // Skewed cost: the first slots' indices are ~100x more expensive, so
      // their initial contiguous ranges must be stolen for the pool to
      // finish balanced.
      volatile std::int64_t sink = 0;
      const std::int64_t spin = (i < n / 8) ? 400 : 4;
      for (std::int64_t s = 0; s < spin; ++s) sink = sink + s;
      runs[static_cast<std::size_t>(i)].fetch_add(1);
    });
    for (std::int64_t i = 0; i < n; ++i) {
      ASSERT_EQ(runs[static_cast<std::size_t>(i)].load(), 1)
          << "threads=" << threads << " index " << i;
    }
  }
}

TEST(WorkStealing, ResultsIndependentOfThreadCountAndInterleaving) {
  const std::int64_t n = 10000;
  const auto run = [&](int threads) {
    std::vector<std::uint64_t> out(static_cast<std::size_t>(n), 0);
    parallel_for(n, threads, [&](std::int64_t i) {
      std::uint64_t h = static_cast<std::uint64_t>(i) * 0x9e3779b97f4a7c15ULL;
      h ^= h >> 29;
      out[static_cast<std::size_t>(i)] = h;
    });
    return out;
  };
  const std::vector<std::uint64_t> reference = run(1);
  for (const int threads : {2, 5, 8}) {
    // Repeat: steal interleavings differ run to run; results must not.
    for (int rep = 0; rep < 3; ++rep) {
      ASSERT_EQ(run(threads), reference)
          << "threads=" << threads << " rep=" << rep;
    }
  }
}

TEST(WorkStealing, NestedParallelForRunsInline) {
  // A body that itself calls parallel_for must not deadlock or double-run
  // indices: the inner call detects pool context and runs inline.
  const std::int64_t outer = 64, inner = 64;
  std::vector<std::atomic<int>> runs(static_cast<std::size_t>(outer * inner));
  for (auto& r : runs) r.store(0);
  parallel_for(outer, 4, [&](std::int64_t i) {
    parallel_for(inner, 4, [&](std::int64_t j) {
      runs[static_cast<std::size_t>(i * inner + j)].fetch_add(1);
    });
  });
  for (auto& r : runs) ASSERT_EQ(r.load(), 1);
}

}  // namespace
}  // namespace winofault
