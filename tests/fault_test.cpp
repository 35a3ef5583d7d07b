// Unit tests for the fault substrate: bit-flip semantics, site sampling
// statistics, protection-set membership, and the storage-cell sampler with
// the output-fault helper that neuron-level injection runs through.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "common/stats.h"
#include "fault/bitflip.h"
#include "fault/fault_model.h"
#include "fault/protection_set.h"
#include "fault/site_sampler.h"
#include "nn/fault_session.h"

namespace winofault {
namespace {

TEST(BitFlip, FlipBitXorSemantics) {
  EXPECT_EQ(flip_bit(0, 0, 8), 1);
  EXPECT_EQ(flip_bit(1, 0, 8), 0);
  EXPECT_EQ(flip_bit(0b1010, 2, 8), 0b1110);
  // Sign bit of an 8-bit register: 0 -> -128.
  EXPECT_EQ(flip_bit(0, 7, 8), -128);
  EXPECT_EQ(flip_bit(-128, 7, 8), 0);
  EXPECT_EQ(flip_bit(-1, 0, 8), -2);
}

TEST(BitFlip, FlipIsInvolution) {
  Rng rng(3);
  for (int trial = 0; trial < 200; ++trial) {
    const int width = 8 + static_cast<int>(rng.next_below(40));
    const int bit = static_cast<int>(rng.next_below(width));
    const std::int64_t range = std::int64_t{1} << (width - 1);
    const std::int64_t v =
        static_cast<std::int64_t>(rng.next_below(2 * range)) - range;
    EXPECT_EQ(flip_bit(flip_bit(v, bit, width), bit, width), v);
  }
}

TEST(BitFlip, ApplyOpFaultMatchesXorForScaleOne) {
  Rng rng(5);
  for (int trial = 0; trial < 200; ++trial) {
    const int bit = static_cast<int>(rng.next_below(24));
    const std::int64_t v =
        static_cast<std::int64_t>(rng.next_below(1 << 24)) - (1 << 23);
    EXPECT_EQ(apply_op_fault(v, bit, 1), flip_bit(v, bit, 32));
  }
}

TEST(BitFlip, ApplyOpFaultScaledDelta) {
  // In a scaled domain (Winograd S = 4), a bit-b flip moves the value by
  // 4 * 2^b, signed by the conceptual register's bit state.
  EXPECT_EQ(apply_op_fault(0, 3, 4), 32);
  EXPECT_EQ(apply_op_fault(100, 0, 4), 96);  // conceptual 25 has bit0 = 1
  EXPECT_EQ(apply_op_fault(96, 0, 4), 100);  // conceptual 24 has bit0 = 0
}

TEST(BitFlip, ApplyOpFaultIsInvolutionInScaledDomain) {
  Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    const std::int64_t scale = trial % 2 ? 4 : 576;
    const int bit = static_cast<int>(rng.next_below(20));
    const std::int64_t v =
        static_cast<std::int64_t>(rng.next_below(1u << 30)) - (1 << 29);
    const std::int64_t once = apply_op_fault(v, bit, scale);
    EXPECT_EQ(std::llabs(once - v), (std::int64_t{1} << bit) * scale);
  }
}

TEST(FaultModel, SurfaceWidths) {
  EXPECT_EQ(FaultModel::mul_surface_bits(DType::kInt8), 16);
  EXPECT_EQ(FaultModel::mul_surface_bits(DType::kInt16), 32);
  EXPECT_EQ(FaultModel::add_surface_bits(DType::kInt8), 12);
  EXPECT_EQ(FaultModel::add_surface_bits(DType::kInt16), 20);
}

TEST(SiteSampler, CountsFollowBinomialMean) {
  OpSpace space;
  space.n_mul = 1'000'000;
  space.n_add = 2'000'000;
  space.mul_bits = 32;
  space.add_bits = 24;
  const double ber = 1e-7;
  SiteSampler sampler(FaultModel{ber});
  Rng rng(11);
  RunningStats stats;
  for (int i = 0; i < 3000; ++i)
    stats.add(static_cast<double>(sampler.sample(space, rng).size()));
  const double expected = ber * (1e6 * 32 + 2e6 * 24);  // = 8
  EXPECT_NEAR(stats.mean(), expected, 0.25);
}

TEST(SiteSampler, SitesWithinBounds) {
  OpSpace space;
  space.n_mul = 1000;
  space.n_add = 500;
  space.mul_bits = 32;
  space.add_bits = 24;
  SiteSampler sampler(FaultModel{1e-3});
  Rng rng(13);
  for (int i = 0; i < 200; ++i) {
    for (const FaultSite& site : sampler.sample(space, rng)) {
      if (site.kind == OpKind::kMul) {
        EXPECT_LT(site.op_index, space.n_mul);
        EXPECT_LT(site.bit, space.mul_bits);
      } else {
        EXPECT_LT(site.op_index, space.n_add);
        EXPECT_LT(site.bit, space.add_bits);
      }
      EXPECT_GE(site.op_index, 0);
      EXPECT_GE(site.bit, 0);
    }
  }
}

TEST(SiteSampler, ZeroBerProducesNoSites) {
  OpSpace space{1000, 1000, 32, 24};
  SiteSampler sampler(FaultModel{0.0});
  Rng rng(17);
  EXPECT_TRUE(sampler.sample(space, rng).empty());
}

TEST(SiteSampler, KindRestrictedSampling) {
  OpSpace space{100000, 100000, 32, 24};
  SiteSampler sampler(FaultModel{1e-5});
  Rng rng(19);
  for (int i = 0; i < 50; ++i) {
    for (const FaultSite& s : sampler.sample_kind(space, OpKind::kMul, rng))
      EXPECT_EQ(s.kind, OpKind::kMul);
    for (const FaultSite& s : sampler.sample_kind(space, OpKind::kAdd, rng))
      EXPECT_EQ(s.kind, OpKind::kAdd);
  }
}

TEST(SiteSampler, FullProtectionRemovesAllSites) {
  OpSpace space{100000, 100000, 32, 24};
  SiteSampler sampler(FaultModel{1e-4});
  ProtectionSet protection(1.0, 1.0);
  Rng rng(23);
  for (int i = 0; i < 20; ++i)
    EXPECT_TRUE(sampler.sample(space, rng, &protection).empty());
}

TEST(SiteSampler, PartialProtectionScalesSiteCount) {
  OpSpace space{4'000'000, 0, 32, 24};
  SiteSampler sampler(FaultModel{1e-7});
  ProtectionSet protection(0.75, 0.0);
  Rng rng(29);
  RunningStats with, without;
  for (int i = 0; i < 4000; ++i) {
    with.add(static_cast<double>(sampler.sample(space, rng, &protection).size()));
    without.add(static_cast<double>(sampler.sample(space, rng).size()));
  }
  // 75% mul protection keeps ~25% of mul faults.
  EXPECT_NEAR(with.mean() / without.mean(), 0.25, 0.035);
}

TEST(ProtectionSet, MembershipFractionIsAccurate) {
  for (const double fraction : {0.1, 0.5, 0.9}) {
    ProtectionSet set(fraction, 0.0);
    int covered = 0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) covered += set.covers(OpKind::kMul, i);
    EXPECT_NEAR(static_cast<double>(covered) / n, fraction, 0.01);
  }
}

TEST(ProtectionSet, GrowthIsMonotone) {
  // Raising the fraction must never un-protect an op (planner invariant).
  ProtectionSet small(0.3, 0.0);
  ProtectionSet large(0.6, 0.0);
  for (int i = 0; i < 50000; ++i) {
    if (small.covers(OpKind::kMul, i))
      EXPECT_TRUE(large.covers(OpKind::kMul, i)) << "op " << i;
  }
}

TEST(ProtectionSet, KindsAreIndependent) {
  ProtectionSet set(1.0, 0.0);
  EXPECT_TRUE(set.covers(OpKind::kMul, 123));
  EXPECT_FALSE(set.covers(OpKind::kAdd, 123));
}

TEST(ProtectionSet, OverheadAccounting) {
  OpSpace space;
  space.n_mul = 1000;
  space.n_add = 500;
  ProtectionSet set(0.5, 0.2);
  // 2 * (0.5*1000*1 + 0.2*500*1) = 1200.
  EXPECT_DOUBLE_EQ(set.overhead(space), 1200.0);
  // Weighted costs.
  EXPECT_DOUBLE_EQ(set.overhead(space, 1.0, 0.5), 2.0 * (500.0 + 50.0));
}

// Neuron-level flips: cell faults over the stored activations, patched in
// by the output-fault helper.
std::int64_t inject_neuron_faults(TensorI32& acts, double ber, DType dtype,
                                  Rng& rng) {
  FaultPlan::LayerFaults faults;
  faults.neurons =
      sample_cell_faults(rng, acts.numel(), bit_width(dtype), ber);
  apply_output_faults(faults, FaultModelKind::kFlip, bit_width(dtype), acts);
  return static_cast<std::int64_t>(faults.neurons.size());
}

TEST(CellFaults, NeuronFlipCountMatchesBerAndStaysInRegister) {
  TensorI32 acts(Shape{1, 8, 16, 16});
  Rng fill(31);
  for (auto& v : acts.flat())
    v = static_cast<std::int32_t>(fill.next_below(256)) - 128;
  const TensorI32 original = acts;
  const double ber = 1e-3;
  Rng rng(37);
  RunningStats stats;
  for (int i = 0; i < 300; ++i) {
    TensorI32 copy = original;
    stats.add(static_cast<double>(
        inject_neuron_faults(copy, ber, DType::kInt8, rng)));
    for (std::int64_t j = 0; j < copy.numel(); ++j) {
      EXPECT_GE(copy[j], -128);
      EXPECT_LE(copy[j], 127);
    }
  }
  const double expected = ber * 8 * static_cast<double>(acts.numel());
  EXPECT_NEAR(stats.mean(), expected, expected * 0.15);
}

TEST(CellFaults, ZeroBerLeavesTensorUntouched) {
  TensorI32 acts(Shape{1, 2, 4, 4});
  acts.fill(7);
  Rng rng(41);
  EXPECT_EQ(inject_neuron_faults(acts, 0.0, DType::kInt16, rng), 0);
  for (std::int64_t i = 0; i < acts.numel(); ++i) EXPECT_EQ(acts[i], 7);
  // Nothing is drawn either: the stream is where it started.
  EXPECT_EQ(rng.next(), Rng(41).next());
}

}  // namespace
}  // namespace winofault
