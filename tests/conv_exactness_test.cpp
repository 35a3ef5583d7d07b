// Property suite: integer Winograd convolution (both tile sizes) is
// bit-identical to direct convolution across randomized shapes, paddings,
// tiling edge cases, and both data widths. This is the foundation of the
// whole study — any accuracy difference between ST-Conv and WG-Conv under
// faults is attributable to fault propagation alone.
#include <gtest/gtest.h>

#include "conv/direct_conv.h"
#include "conv/engine.h"
#include "conv/winograd_conv.h"
#include "conv/winograd_transforms.h"
#include "test_util.h"

namespace winofault {
namespace {

using testing::ConvProblem;
using testing::expect_tensors_equal;
using testing::make_problem;

struct ExactCase {
  std::int64_t in_c, in_h, in_w, out_c, pad;
  DType dtype;
  int m;  // Winograd tile size
};

std::string case_name(const ::testing::TestParamInfo<ExactCase>& info) {
  const ExactCase& c = info.param;
  char buf[96];
  std::snprintf(buf, sizeof(buf), "ic%lld_h%lld_w%lld_oc%lld_p%lld_%s_F%d",
                static_cast<long long>(c.in_c), static_cast<long long>(c.in_h),
                static_cast<long long>(c.in_w), static_cast<long long>(c.out_c),
                static_cast<long long>(c.pad),
                dtype_name(c.dtype), c.m);
  return buf;
}

class WinogradExactness : public ::testing::TestWithParam<ExactCase> {};

TEST_P(WinogradExactness, MatchesDirectBitExact) {
  const ExactCase& c = GetParam();
  Rng rng(0xABCDEF01u + static_cast<std::uint64_t>(c.in_h * 131 + c.in_c));
  ConvDesc desc;
  desc.in_c = c.in_c;
  desc.in_h = c.in_h;
  desc.in_w = c.in_w;
  desc.out_c = c.out_c;
  desc.pad = c.pad;
  const ConvProblem p = make_problem(rng, desc, c.dtype);

  const TensorI32 ref = direct_engine().forward(desc, p.data());
  const TensorI32 wino = winograd_engine(c.m).forward(desc, p.data());
  expect_tensors_equal(ref, wino, "winograd vs direct");
}

INSTANTIATE_TEST_SUITE_P(
    ShapeSweep, WinogradExactness,
    ::testing::Values(
        // Even tiling, both dtypes and tile sizes.
        ExactCase{3, 8, 8, 4, 1, DType::kInt16, 2},
        ExactCase{3, 8, 8, 4, 1, DType::kInt16, 4},
        ExactCase{3, 8, 8, 4, 1, DType::kInt8, 2},
        ExactCase{3, 8, 8, 4, 1, DType::kInt8, 4},
        // Ragged tiling (output not a multiple of m).
        ExactCase{2, 7, 9, 3, 1, DType::kInt16, 2},
        ExactCase{2, 7, 9, 3, 1, DType::kInt16, 4},
        ExactCase{2, 5, 11, 3, 1, DType::kInt8, 4},
        // No padding (valid convolution).
        ExactCase{4, 10, 10, 2, 0, DType::kInt16, 2},
        ExactCase{4, 10, 10, 2, 0, DType::kInt16, 4},
        // Single channel / single output channel edges.
        ExactCase{1, 6, 6, 1, 1, DType::kInt16, 2},
        ExactCase{1, 6, 6, 1, 1, DType::kInt8, 4},
        // Minimum spatial size covering one partial tile.
        ExactCase{2, 3, 3, 2, 1, DType::kInt16, 2},
        ExactCase{2, 3, 3, 2, 1, DType::kInt16, 4},
        // Wider layers resembling the model zoo.
        ExactCase{16, 16, 16, 16, 1, DType::kInt16, 4},
        ExactCase{16, 16, 16, 16, 1, DType::kInt8, 2}),
    case_name);

TEST(WinogradExactness, ManyRandomShapes) {
  Rng rng(0x5eed5eedULL);
  for (int trial = 0; trial < 30; ++trial) {
    ConvDesc desc;
    desc.in_c = 1 + static_cast<std::int64_t>(rng.next_below(6));
    desc.in_h = 3 + static_cast<std::int64_t>(rng.next_below(14));
    desc.in_w = 3 + static_cast<std::int64_t>(rng.next_below(14));
    desc.out_c = 1 + static_cast<std::int64_t>(rng.next_below(6));
    desc.pad = static_cast<std::int64_t>(rng.next_below(2));
    desc.has_bias = rng.bernoulli(0.5);
    const DType dtype = rng.bernoulli(0.5) ? DType::kInt8 : DType::kInt16;
    const int m = rng.bernoulli(0.5) ? 2 : 4;
    const ConvProblem p = make_problem(rng, desc, dtype);
    const TensorI32 ref = direct_engine().forward(desc, p.data());
    const TensorI32 wino = winograd_engine(m).forward(desc, p.data());
    expect_tensors_equal(ref, wino, "random shape winograd vs direct");
  }
}

TEST(WinogradExactness, NoBias) {
  Rng rng(77);
  ConvDesc desc;
  desc.in_c = 3;
  desc.in_h = 9;
  desc.in_w = 9;
  desc.out_c = 5;
  desc.has_bias = false;
  const ConvProblem p = make_problem(rng, desc, DType::kInt16);
  expect_tensors_equal(direct_engine().forward(desc, p.data()),
                       winograd_engine(2).forward(desc, p.data()), "no-bias");
  expect_tensors_equal(direct_engine().forward(desc, p.data()),
                       winograd_engine(4).forward(desc, p.data()), "no-bias");
}

// Extreme operand values exercise the widest internal magnitudes the
// transforms can produce (documented headroom bounds).
TEST(WinogradExactness, SaturatedOperands) {
  for (const DType dtype : {DType::kInt8, DType::kInt16}) {
    for (const int m : {2, 4}) {
      ConvDesc desc;
      desc.in_c = 8;
      desc.in_h = 8;
      desc.in_w = 8;
      desc.out_c = 2;
      Rng rng(9);
      ConvProblem p = make_problem(rng, desc, dtype);
      for (auto& v : p.input.flat()) v = dtype_min(dtype);
      for (auto& v : p.weights.flat()) v = dtype_max(dtype);
      expect_tensors_equal(direct_engine().forward(desc, p.data()),
                           winograd_engine(m).forward(desc, p.data()),
                           "saturated");
    }
  }
}

// The scaled-integer transform matrices must satisfy Gs = s*G exactly:
// verified by checking the defining algebraic identity on a unit impulse —
// convolving a delta input reproduces the (flipped) kernel.
TEST(WinogradTransforms, ImpulseReproducesKernel) {
  for (const int m : {2, 4}) {
    ConvDesc desc;
    desc.in_c = 1;
    desc.in_h = 8;
    desc.in_w = 8;
    desc.out_c = 1;
    desc.pad = 1;
    desc.has_bias = false;
    ConvProblem p;
    p.desc = desc;
    p.dtype = DType::kInt16;
    p.input = TensorI32(desc.in_shape());
    p.weights = TensorI32(desc.weight_shape());
    p.input.at(0, 0, 4, 4) = 1;
    std::int32_t next = 1;
    for (auto& w : p.weights.flat()) w = next++;
    p.acc_scale = 1.0;
    p.out_quant = QuantParams{1.0, DType::kInt16};
    const TensorI32 out = winograd_engine(m).forward(desc, p.data());
    // Cross-correlation of an impulse at (4,4) places kernel value g(ky,kx)
    // at output (4-ky+1, 4-kx+1) for pad 1.
    for (std::int64_t ky = 0; ky < 3; ++ky) {
      for (std::int64_t kx = 0; kx < 3; ++kx) {
        EXPECT_EQ(out.at(0, 0, 5 - ky, 5 - kx), p.weights.at(0, 0, ky, kx));
      }
    }
  }
}

TEST(WinogradPlans, AddCountsMatchMatrices) {
  // F(2,3): B^T rows all have 2 nonzeros -> 1 add per element, two passes of
  // (4+4) elements per row group => 32 input-transform adds.
  EXPECT_EQ(winograd_plan_f2().input_transform_adds(), 32);
  // A^T rows have 3 nonzeros -> 2 adds; (4 cols + 2 rows) * (2+2) = 24.
  EXPECT_EQ(winograd_plan_f2().inverse_transform_adds(), 24);
  // F(4,3): per-row adds of B^T are (2,3,3,3,3,2)=16; (6+6)*16 = 192.
  EXPECT_EQ(winograd_plan_f4().input_transform_adds(), 192);
  // A^T per-row adds (4,3,3,4)=14; (6+4)*14 = 140.
  EXPECT_EQ(winograd_plan_f4().inverse_transform_adds(), 140);
}

TEST(WinogradPlans, MulReductionFactors) {
  ConvDesc desc;
  desc.in_c = 16;
  desc.in_h = 16;
  desc.in_w = 16;
  desc.out_c = 16;
  const auto reduction = [&](int m) {
    return static_cast<double>(
               direct_engine().op_space(desc, DType::kInt16).n_mul) /
           static_cast<double>(
               winograd_engine(m).op_space(desc, DType::kInt16).n_mul);
  };
  // Even tiling: F(2,3) uses 16 muls per 4 outputs = 4/9 of direct's 9.
  EXPECT_DOUBLE_EQ(reduction(2), 2.25);
  // F(4,3): 36 muls per 16 outputs vs 144 direct.
  EXPECT_DOUBLE_EQ(reduction(4), 4.0);
}

}  // namespace
}  // namespace winofault
