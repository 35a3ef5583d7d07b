// Exactness matrix for the explicit SIMD microkernels: every dispatch
// level (scalar / AVX2 / AVX-512, forced via set_gemm_isa) must be
// bit-identical to the instrumented reference on shapes covering the tile
// kernel, its e-tails, and the small-extent dot kernel, the delta kernel
// to a scalar reference on adversarial operands, at its run and segment
// boundaries and over a seeded sweep of random conv geometries, and the
// span requantize to requantize_value. Plus the
// work-stealing determinism contract of parallel_for: each index runs
// exactly once and results never depend on the thread count or steal
// interleaving.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
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

// W·(x' - x) straight from the conv definition: the delta of every output
// element, [position][out_c], and whether each position's window holds a
// changed element.
struct ReferenceDelta {
  std::vector<std::int64_t> acc;
  std::vector<bool> reached;
};

ReferenceDelta reference_delta(const ConvDesc& desc, const TensorI32& weights,
                               const TensorI32& input,
                               const TensorI32& golden) {
  const std::int64_t ow = desc.out_w();
  const std::int64_t positions = desc.out_h() * ow;
  ReferenceDelta ref{std::vector<std::int64_t>(
                         static_cast<std::size_t>(positions * desc.out_c)),
                     std::vector<bool>(static_cast<std::size_t>(positions))};
  for (std::int64_t e = 0; e < positions; ++e) {
    const std::int64_t oy = e / ow, ox = e % ow;
    for (std::int64_t ic = 0; ic < desc.in_c; ++ic) {
      for (std::int64_t ky = 0; ky < desc.kh; ++ky) {
        const std::int64_t iy = oy * desc.stride - desc.pad + ky;
        for (std::int64_t kx = 0; kx < desc.kw; ++kx) {
          const std::int64_t ix = ox * desc.stride - desc.pad + kx;
          if (iy < 0 || iy >= desc.in_h || ix < 0 || ix >= desc.in_w) continue;
          const std::int64_t d =
              std::int64_t{input.at(0, ic, iy, ix)} - golden.at(0, ic, iy, ix);
          if (d == 0) continue;
          ref.reached[static_cast<std::size_t>(e)] = true;
          for (std::int64_t oc = 0; oc < desc.out_c; ++oc) {
            ref.acc[static_cast<std::size_t>(e * desc.out_c + oc)] +=
                d * weights.at(oc, ic, ky, kx);
          }
        }
      }
    }
  }
  return ref;
}

// A direct_delta_acc result against the reference: exactly the reached
// positions, ascending, each with every channel's delta.
void expect_delta_equals(const ReferenceDelta& ref, const ConvDelta& delta,
                         std::int64_t out_c, const std::string& what) {
  const std::size_t row = static_cast<std::size_t>(out_c);
  ASSERT_EQ(delta.acc.size(), delta.positions.size() * row) << what;
  std::size_t s = 0;
  for (std::size_t e = 0; e < ref.reached.size(); ++e) {
    if (!ref.reached[e]) continue;
    ASSERT_LT(s, delta.positions.size())
        << what << ": position " << e << " not reached";
    ASSERT_EQ(delta.positions[s], static_cast<std::int64_t>(e))
        << what << ": reached positions differ";
    for (std::size_t oc = 0; oc < row; ++oc) {
      ASSERT_EQ(delta.acc[s * row + oc], ref.acc[e * row + oc])
          << what << ": oc " << oc << " at position " << e;
    }
    ++s;
  }
  ASSERT_EQ(s, delta.positions.size()) << what << ": unchanged positions";
}

void expect_delta_matches_reference(const ConvDesc& desc,
                                    const TensorI32& weights,
                                    const TensorI32& input,
                                    const TensorI32& golden,
                                    const std::string& what) {
  expect_delta_equals(
      reference_delta(desc, weights, input, golden),
      direct_delta_acc(desc, input, golden,
                       transpose_weights_i16(desc, weights)),
      desc.out_c, what);
}

struct DeltaShape {
  std::int64_t in_c, hw, out_c, k, stride, pad;
};

// delta_microkernel on hand-made segments, lists[s] at tap taps[s], against
// the plain int64 sum. The range check covers every segment, as
// direct_delta_acc's covers the whole call.
void expect_kernel_matches_sum(const std::vector<std::vector<DeltaTerm>>& lists,
                               const std::vector<std::int32_t>& taps,
                               const std::vector<std::int16_t>& wt,
                               std::int64_t out_c, const std::string& what) {
  ASSERT_EQ(lists.size(), taps.size()) << what;
  std::vector<DeltaSegment> segments;
  bool narrow = true;
  for (std::size_t s = 0; s < lists.size(); ++s) {
    const std::int64_t n = static_cast<std::int64_t>(lists[s].size());
    segments.push_back(DeltaSegment{lists[s].data(), n, taps[s]});
    narrow &= deltas_fit_int16(lists[s].data(), n);
  }
  std::vector<std::int64_t> acc(static_cast<std::size_t>(out_c), -1);
  delta_microkernel(acc.data(), out_c, segments.data(),
                    static_cast<std::int64_t>(segments.size()), wt.data(),
                    narrow);
  for (std::int64_t oc = 0; oc < out_c; ++oc) {
    std::int64_t sum = 0;
    for (std::size_t s = 0; s < lists.size(); ++s) {
      for (const DeltaTerm& t : lists[s]) {
        sum += std::int64_t{t.delta} *
               wt[static_cast<std::size_t>((t.row + taps[s]) * out_c + oc)];
      }
    }
    ASSERT_EQ(acc[static_cast<std::size_t>(oc)], sum)
        << what << ": oc " << oc;
  }
}

// A random conv problem whose golden inputs lie in [0, 32767], as ReLU and
// pool outputs do, and whose changes are at most `max_delta` <= 32767, so
// every delta fits int16 and the pair kernels run. `change` is the chance
// that an input element differs from golden.
struct NarrowDelta {
  ConvDesc desc;
  TensorI32 weights, golden, input;
};

NarrowDelta narrow_delta(Rng& rng, const ConvDesc& desc, double change,
                         std::int32_t max_delta) {
  NarrowDelta p{desc, TensorI32(desc.weight_shape()),
                TensorI32(desc.in_shape()), TensorI32()};
  for (std::int32_t& w : p.weights.flat()) {
    w = static_cast<std::int32_t>(rng.next_below(65536)) - 32768;
  }
  for (std::int32_t& v : p.golden.flat()) {
    v = static_cast<std::int32_t>(rng.next_below(32768));
  }
  p.input = p.golden;
  for (std::int32_t& v : p.input.flat()) {
    if (!rng.bernoulli(change)) continue;
    const std::int32_t d =
        1 + static_cast<std::int32_t>(rng.next_below(
                static_cast<std::uint64_t>(max_delta)));
    v = v + d <= 32767 ? v + d : v - d;
  }
  return p;
}

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

    // Narrow deltas run the pair kernels: every channel count around the
    // group widths (16 per ymm, 32 per zmm, 128 per AVX-512 pass, 64 per
    // AVX2 pass), dense and sparse, with odd segments (in_c 5), and long
    // runs of small deltas.
    const std::string level = std::string("isa=") + gemm_isa_name(isa);
    for (const std::int64_t out_c :
         {1, 15, 16, 17, 31, 32, 33, 48, 100, 128, 129}) {
      ConvDesc desc;
      desc.in_c = 5;
      desc.in_h = desc.in_w = 5;
      desc.out_c = out_c;
      desc.kh = desc.kw = 3;
      desc.pad = 1;
      Rng rng(0xDE17B000u + static_cast<std::uint64_t>(out_c));
      for (const double change : {1.0, 0.1}) {
        const NarrowDelta p = narrow_delta(rng, desc, change, 32767);
        expect_delta_matches_reference(
            desc, p.weights, p.input, p.golden,
            level + " narrow out_c=" + std::to_string(out_c) +
                " change=" + std::to_string(change));
      }
    }
    {
      ConvDesc desc;
      desc.in_c = 256;
      desc.in_h = desc.in_w = 4;
      desc.out_c = 33;
      desc.kh = desc.kw = 3;
      desc.pad = 1;
      Rng rng(0xDE17C000u);
      const NarrowDelta p = narrow_delta(rng, desc, 0.9, 3);
      expect_delta_matches_reference(desc, p.weights, p.input, p.golden,
                                     level + " long runs of small deltas");
    }
    // One wide delta (32767 -> -32768, so -65535) among narrow ones, away
    // from the first changed position: the call's one range check fails,
    // so every position takes the scalar route.
    {
      ConvDesc desc;
      desc.in_c = 6;
      desc.in_h = desc.in_w = 5;
      desc.out_c = 48;
      desc.kh = desc.kw = 3;
      desc.pad = 1;
      Rng rng(0xDE17D000u);
      NarrowDelta p = narrow_delta(rng, desc, 0.5, 100);
      p.golden.at(0, 3, 2, 2) = 32767;
      p.input.at(0, 3, 2, 2) = -32768;
      expect_delta_matches_reference(desc, p.weights, p.input, p.golden,
                                     level + " one wide delta");
    }

    // The kernel itself at its run boundaries, for every channel count. A
    // weight of -32768 + oc % 7 and negative deltas give products of one
    // sign, so a run whose sum of |delta| passed 65535 would wrap int32 in
    // the channels where oc % 7 == 0.
    for (const std::int64_t out_c :
         {1, 15, 16, 17, 31, 32, 33, 48, 100, 128, 129}) {
      constexpr std::int64_t kRows = 40;
      std::vector<std::int16_t> extreme(
          static_cast<std::size_t>(kRows * out_c));
      std::vector<std::int16_t> random(extreme.size());
      Rng rng(0xDE17E000u + static_cast<std::uint64_t>(out_c));
      for (std::int64_t r = 0; r < kRows; ++r) {
        for (std::int64_t oc = 0; oc < out_c; ++oc) {
          const std::size_t i = static_cast<std::size_t>(r * out_c + oc);
          extreme[i] = static_cast<std::int16_t>(-32768 + oc % 7);
          random[i] = static_cast<std::int16_t>(
              static_cast<std::int32_t>(rng.next_below(65536)) - 32768);
        }
      }
      const auto terms_of = [](std::initializer_list<std::int32_t> deltas) {
        std::vector<DeltaTerm> terms;
        for (const std::int32_t d : deltas) {
          terms.push_back(DeltaTerm{
              static_cast<std::int32_t>(terms.size() % kRows), d});
        }
        return terms;
      };
      // n random terms on rows [0, 30), every |delta| <= 32767.
      const auto random_terms = [&](std::int64_t n) {
        std::vector<DeltaTerm> terms;
        for (std::int64_t i = 0; i < n; ++i) {
          terms.push_back(DeltaTerm{
              static_cast<std::int32_t>(rng.next_below(30)),
              static_cast<std::int32_t>(rng.next_below(65535)) - 32767});
        }
        return terms;
      };
      const std::string what = level + " out_c=" + std::to_string(out_c);
      // Every |delta| 32767: each run holds exactly one pair.
      expect_kernel_matches_sum(
          {terms_of({-32767, -32767, -32767, -32767, -32767, -32767, -32767})},
          {0}, extreme, out_c, what + " one pair per run");
      // Running sums of |delta| that land exactly on 65535 (one run), and
      // on 65536 (the second pair opens a new run).
      expect_kernel_matches_sum({terms_of({-32767, -32766, -1, -1, -5, -3})},
                                {0}, extreme, out_c, what + " sum 65535");
      expect_kernel_matches_sum({terms_of({-32767, -32767, -1, -1})}, {0},
                                extreme, out_c, what + " sum 65536");
      // A run carries across segments: the second segment's first pair
      // takes the run past 65535 and must open a new run, and so must a
      // pair that follows an odd segment's zero-padded last pair.
      expect_kernel_matches_sum(
          {terms_of({-32767, -32767}), terms_of({-32767, -32767})}, {0, 1},
          extreme, out_c, what + " run crosses a segment boundary");
      expect_kernel_matches_sum(
          {terms_of({-32767, -32766, -1}), terms_of({-1, -1, -3})}, {2, 0},
          extreme, out_c, what + " run crosses after an odd segment");
      // Several short segments of one run, summing to exactly 65535.
      expect_kernel_matches_sum(
          {terms_of({-30000}), terms_of({-2767, -16383}),
           terms_of({-16384, -1})},
          {4, 0, 7}, extreme, out_c, what + " one run over three segments");
      // ±32767 against weights of both extremes, mixed signs.
      std::vector<std::int16_t> mixed = extreme;
      for (std::size_t i = 0; i < mixed.size(); i += 2) mixed[i] = 32767;
      expect_kernel_matches_sum(
          {terms_of({32767, -32767, 32767, 32767, -32767, -32767})}, {0},
          mixed, out_c, what + " mixed extremes");
      // Odd segment lengths, one segment and several, each of whose last
      // term pairs with a zero delta.
      for (const std::int64_t n : {1, 3, 7, 33}) {
        expect_kernel_matches_sum({random_terms(n)}, {0}, random, out_c,
                                  what + " n=" + std::to_string(n));
      }
      expect_kernel_matches_sum(
          {random_terms(1), random_terms(3), random_terms(2), random_terms(5),
           random_terms(1)},
          {3, 0, 9, 1, 3}, random, out_c, what + " odd segments");
      // Nine segments with taps 0..8 over one row set, rows ic*9 of three
      // input channels, as a 3x3 window of one position has.
      {
        std::vector<std::vector<DeltaTerm>> lists;
        std::vector<std::int32_t> taps;
        for (std::int32_t tap = 0; tap < 9; ++tap) {
          lists.push_back({});
          for (const std::int32_t row : {0, 9, 18}) {
            lists.back().push_back(DeltaTerm{
                row, static_cast<std::int32_t>(rng.next_below(65535)) -
                         32767});
          }
          taps.push_back(tap);
        }
        expect_kernel_matches_sum(lists, taps, random, out_c,
                                  what + " nine taps");
      }
      // A call whose range check fails on a later segment, at the edges
      // -32768 and ±65535: every segment runs the scalar kernel.
      for (const std::int32_t wide : {-32768, 65535, -65535}) {
        std::vector<std::vector<DeltaTerm>> lists = {
            random_terms(4), random_terms(3), random_terms(6)};
        lists[2][3].delta = wide;
        expect_kernel_matches_sum(lists, {0, 5, 2}, random, out_c,
                                  what + " wide " + std::to_string(wide));
      }
    }
  }
}

// A seeded sweep of random geometries through direct_delta_acc at every
// level against the definition: k 1, 3 or 5, stride 1-2, pad 0-2, in_c
// 1-300, out_c 1-200, 1% to 100% of the input changed, by narrow deltas
// (the pair kernels) or by deltas up to 65535 (a call holding one wider
// than int16 runs the scalar kernel).
TEST(SimdKernel, DeltaRandomShapeSweep) {
  IsaGuard guard;
  Rng rng(0xDE17F000u);
  for (int trial = 0; trial < 160; ++trial) {
    ConvDesc desc;
    desc.kh = desc.kw = 1 + 2 * static_cast<std::int64_t>(rng.next_below(3));
    desc.stride = 1 + static_cast<std::int64_t>(rng.next_below(2));
    desc.pad = static_cast<std::int64_t>(rng.next_below(3));
    desc.in_c = 1 + static_cast<std::int64_t>(rng.next_below(300));
    desc.out_c = 1 + static_cast<std::int64_t>(rng.next_below(200));
    // Spatial extents from the smallest the padded kernel fits to 6.
    const std::int64_t min_hw =
        std::max<std::int64_t>(1, desc.kh - 2 * desc.pad);
    desc.in_h = min_hw + static_cast<std::int64_t>(rng.next_below(
                             static_cast<std::uint64_t>(7 - min_hw)));
    desc.in_w = min_hw + static_cast<std::int64_t>(rng.next_below(
                             static_cast<std::uint64_t>(7 - min_hw)));
    const double change = std::pow(10.0, -2.0 * rng.next_double());
    const bool wide = rng.bernoulli(0.3);
    const std::int32_t max_delta =
        wide ? 65535 : std::int32_t{1} << (1 + rng.next_below(15));
    const std::string what =
        "trial " + std::to_string(trial) + " in_c=" +
        std::to_string(desc.in_c) + " " + std::to_string(desc.in_h) + "x" +
        std::to_string(desc.in_w) + " out_c=" + std::to_string(desc.out_c) +
        " k=" + std::to_string(desc.kh) + " s=" +
        std::to_string(desc.stride) + " p=" + std::to_string(desc.pad) +
        " change=" + std::to_string(change) +
        " max_delta=" + std::to_string(max_delta);
    // Narrow: golden in [0, 32767] and every |delta| <= 32767. Wide: any
    // int16 golden and any other int16 value where it changes.
    TensorI32 weights(desc.weight_shape());
    for (std::int32_t& w : weights.flat()) {
      w = static_cast<std::int32_t>(rng.next_below(65536)) - 32768;
    }
    TensorI32 golden(desc.in_shape());
    for (std::int32_t& v : golden.flat()) {
      v = static_cast<std::int32_t>(rng.next_below(wide ? 65536 : 32768)) -
          (wide ? 32768 : 0);
    }
    TensorI32 input = golden;
    for (std::int32_t& v : input.flat()) {
      if (!rng.bernoulli(change)) continue;
      const std::int32_t d = 1 + static_cast<std::int32_t>(rng.next_below(
                                     static_cast<std::uint64_t>(
                                         std::min(max_delta, 32767))));
      if (wide) {
        v = (v + 32768 + d + static_cast<std::int32_t>(rng.next_below(
                                 32768))) % 65536 - 32768;
      } else {
        v = v + d <= 32767 ? v + d : v - d;
      }
    }
    const ReferenceDelta ref = reference_delta(desc, weights, input, golden);
    const std::vector<std::int16_t> wt = transpose_weights_i16(desc, weights);
    for (const GemmIsa isa : supported_isas()) {
      ASSERT_EQ(set_gemm_isa(isa), isa);
      expect_delta_equals(ref, direct_delta_acc(desc, input, golden, wt),
                          desc.out_c,
                          std::string("isa=") + gemm_isa_name(isa) + " " +
                              what);
    }
  }
}

// ---- Span requantize -------------------------------------------------------

// requantize_span at every level against requantize_value, element by
// element: accumulators over the whole int64 range and at its ends, near
// ±2^53, exact .5 ties, the largest double below 0.5 (which adding 0.5
// before truncating rounds up), both dtype clamps, a scale ratio far above
// 1 that takes |x| past 2^63 (where x86 llround returns INT64_MIN), and
// every span length from 0 to 17.
TEST(SimdKernel, RequantizeSpanMatchesScalarAtEveryIsa) {
  IsaGuard guard;
  Rng rng(0x5EC0A47u);
  std::vector<std::int64_t> accs = {std::numeric_limits<std::int64_t>::min(),
                                    std::numeric_limits<std::int64_t>::max(),
                                    0, 1, -1};
  for (int i = 0; i < 200; ++i) {
    accs.push_back(static_cast<std::int64_t>(rng.next()));
  }
  for (std::int64_t k = -4; k <= 4; ++k) {
    accs.push_back((std::int64_t{1} << 53) + k);
    accs.push_back(-(std::int64_t{1} << 53) + k);
  }
  for (std::int64_t v = -300; v <= 300; ++v) accs.push_back(v);
  for (int i = 0; i < 200; ++i) {
    accs.push_back(static_cast<std::int64_t>(rng.next_below(1u << 24)) -
                   (1 << 23));
  }
  struct Scales {
    double acc_scale, out_scale;
  };
  const Scales scales[] = {
      {2.0, 0.5},   {0.25, 0.5},        {0.5, 2.0},   {0.5, 1.0},
      {1.0, 3.0},   {1.0 / 4096, 0.25}, {3e-5, 7e-3}, {1e-3, 1e-3},
      {1e10, 1e-10}, {1e300, 1e-300}, {std::nextafter(0.5, 0.0), 1.0},
  };
  for (const GemmIsa isa : supported_isas()) {
    ASSERT_EQ(set_gemm_isa(isa), isa);
    for (const DType dtype : {DType::kInt8, DType::kInt16}) {
      for (const Scales& sc : scales) {
        const QuantParams quant{sc.out_scale, dtype};
        const std::string what =
            std::string("isa=") + gemm_isa_name(isa) + " " +
            dtype_name(dtype) + " scales " + std::to_string(sc.acc_scale) +
            "/" + std::to_string(sc.out_scale);
        std::vector<std::int32_t> got(accs.size());
        requantize_span(accs.data(), static_cast<std::int64_t>(accs.size()),
                        sc.acc_scale, quant, got.data());
        for (std::size_t i = 0; i < accs.size(); ++i) {
          ASSERT_EQ(got[i], requantize_value(accs[i], sc.acc_scale, quant))
              << what << ": acc " << accs[i];
        }
        // Every span length up to two vectors and a tail, at an odd
        // offset; nothing past the span is written.
        for (std::int64_t n = 0; n <= 17; ++n) {
          std::vector<std::int32_t> span(static_cast<std::size_t>(n) + 1,
                                         12345);
          requantize_span(accs.data() + 3, n, sc.acc_scale, quant,
                          span.data());
          for (std::int64_t i = 0; i < n; ++i) {
            ASSERT_EQ(span[static_cast<std::size_t>(i)],
                      requantize_value(accs[static_cast<std::size_t>(3 + i)],
                                       sc.acc_scale, quant))
                << what << ": span length " << n;
          }
          ASSERT_EQ(span.back(), 12345) << what << ": span length " << n;
        }
      }
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
