// Exactness matrix for the explicit SIMD GEMM microkernel: every dispatch
// level (scalar / AVX2 / AVX-512, forced via set_gemm_isa) must be
// bit-identical to the instrumented reference on shapes covering the tile
// kernel, its e-tails, and the small-extent dot kernel. Plus the
// work-stealing determinism contract of parallel_for: each index runs
// exactly once and results never depend on the thread count or steal
// interleaving.
#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "conv/direct_conv.h"
#include "conv/gemm_kernel.h"
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
      const TensorI32 reference = direct_forward_reference(desc, p.data());
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
      for (std::int64_t s = 0; s < spin; ++s) sink += s;
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
