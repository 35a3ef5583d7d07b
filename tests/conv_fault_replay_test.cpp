// Property suite: engine.forward() + engine.apply_faults(sites) is
// bit-identical to running the whole layer with every operation
// instrumented (instrumented_ref). This proves the fast replay path
// implements the operation-level fault model exactly, for every op kind,
// every block of the Winograd add space, and multi-fault schedules.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "conv/engine.h"
#include "conv/instrumented_ref.h"
#include "conv/winograd_conv.h"
#include "fault/site_sampler.h"
#include "test_util.h"

namespace winofault {
namespace {

using testing::ConvProblem;
using testing::count_diffs;
using testing::expect_tensors_equal;
using testing::make_problem;

ConvDesc small_desc() {
  ConvDesc desc;
  desc.in_c = 3;
  desc.in_h = 9;
  desc.in_w = 7;
  desc.out_c = 4;
  return desc;
}

void check_replay(const ConvEngine& engine, bool winograd, int m,
                  const ConvProblem& p, std::span<const FaultSite> sites) {
  TensorI32 replay = engine.forward(p.desc, p.data());
  engine.apply_faults(p.desc, p.data(), sites, replay);
  const TensorI32 ref =
      winograd ? winograd_forward_instrumented(m, p.desc, p.data(), sites)
               : direct_forward_instrumented(p.desc, p.data(), sites);
  expect_tensors_equal(ref, replay, "instrumented vs replay");
}

// Exhaustive-ish single-fault sweep: every op-space region, several bits.
TEST(DirectReplay, SingleFaultSweep) {
  Rng rng(101);
  const ConvDesc desc = small_desc();
  const ConvProblem p = make_problem(rng, desc, DType::kInt16);
  const OpSpace space = direct_engine().op_space(desc, DType::kInt16);
  for (const OpKind kind : {OpKind::kMul, OpKind::kAdd}) {
    const std::int64_t n =
        kind == OpKind::kMul ? space.n_mul : space.n_add;
    const int width = kind == OpKind::kMul ? space.mul_bits : space.add_bits;
    for (int trial = 0; trial < 60; ++trial) {
      FaultSite site;
      site.kind = kind;
      site.op_index = static_cast<std::int64_t>(
          rng.next_below(static_cast<std::uint64_t>(n)));
      site.bit =
          static_cast<int>(rng.next_below(static_cast<std::uint64_t>(width)));
      check_replay(direct_engine(), false, 0, p, {&site, 1});
    }
  }
}

class WinogradReplay : public ::testing::TestWithParam<int> {};

TEST_P(WinogradReplay, SingleFaultSweepAllBlocks) {
  const int m = GetParam();
  Rng rng(202 + m);
  const ConvDesc desc = small_desc();
  const ConvProblem p = make_problem(rng, desc, DType::kInt16);
  const auto& engine = winograd_engine(m);
  const OpSpace space = engine.op_space(desc, DType::kInt16);
  const WgLayout layout =
      WgLayout::make(winograd_plan(m), desc);

  // Muls.
  for (int trial = 0; trial < 40; ++trial) {
    FaultSite site;
    site.kind = OpKind::kMul;
    site.op_index = static_cast<std::int64_t>(
        rng.next_below(static_cast<std::uint64_t>(space.n_mul)));
    site.bit = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(space.mul_bits)));
    check_replay(engine, true, m, p, {&site, 1});
  }
  // Adds: hit each block explicitly (input transform, channel accumulation,
  // inverse transform, bias).
  const std::int64_t block_bounds[5] = {0, layout.base_b, layout.base_c,
                                        layout.base_d, layout.n_add};
  for (int block = 0; block < 4; ++block) {
    const std::int64_t lo = block_bounds[block];
    const std::int64_t hi = block_bounds[block + 1];
    ASSERT_LT(lo, hi) << "empty add block " << block;
    for (int trial = 0; trial < 25; ++trial) {
      FaultSite site;
      site.kind = OpKind::kAdd;
      site.op_index =
          lo + static_cast<std::int64_t>(
                   rng.next_below(static_cast<std::uint64_t>(hi - lo)));
      site.bit = static_cast<int>(
          rng.next_below(static_cast<std::uint64_t>(space.add_bits)));
      check_replay(engine, true, m, p, {&site, 1});
    }
  }
}

TEST_P(WinogradReplay, MultiFaultSchedules) {
  const int m = GetParam();
  Rng rng(303 + m);
  const ConvDesc desc = small_desc();
  for (const DType dtype : {DType::kInt8, DType::kInt16}) {
    const ConvProblem p = make_problem(rng, desc, dtype);
    const auto& engine = winograd_engine(m);
    const OpSpace space = engine.op_space(desc, dtype);
    for (int trial = 0; trial < 20; ++trial) {
      std::vector<FaultSite> sites;
      const int count = 1 + static_cast<int>(rng.next_below(8));
      for (int i = 0; i < count; ++i) {
        FaultSite site;
        site.kind = rng.bernoulli(0.5) ? OpKind::kMul : OpKind::kAdd;
        const std::int64_t n =
            site.kind == OpKind::kMul ? space.n_mul : space.n_add;
        const int width =
            site.kind == OpKind::kMul ? space.mul_bits : space.add_bits;
        site.op_index = static_cast<std::int64_t>(
            rng.next_below(static_cast<std::uint64_t>(n)));
        site.bit = static_cast<int>(
            rng.next_below(static_cast<std::uint64_t>(width)));
        sites.push_back(site);
      }
      check_replay(engine, true, m, p, sites);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(TileSizes, WinogradReplay, ::testing::Values(2, 4),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "F" + std::to_string(info.param);
                         });

TEST(DirectReplay, MultiFaultSchedules) {
  Rng rng(404);
  const ConvDesc desc = small_desc();
  for (const DType dtype : {DType::kInt8, DType::kInt16}) {
    const ConvProblem p = make_problem(rng, desc, dtype);
    const OpSpace space = direct_engine().op_space(desc, dtype);
    for (int trial = 0; trial < 20; ++trial) {
      std::vector<FaultSite> sites;
      const int count = 1 + static_cast<int>(rng.next_below(10));
      for (int i = 0; i < count; ++i) {
        FaultSite site;
        site.kind = rng.bernoulli(0.5) ? OpKind::kMul : OpKind::kAdd;
        const std::int64_t n =
            site.kind == OpKind::kMul ? space.n_mul : space.n_add;
        const int width =
            site.kind == OpKind::kMul ? space.mul_bits : space.add_bits;
        site.op_index = static_cast<std::int64_t>(
            rng.next_below(static_cast<std::uint64_t>(n)));
        site.bit = static_cast<int>(
            rng.next_below(static_cast<std::uint64_t>(width)));
        sites.push_back(site);
      }
      check_replay(direct_engine(), false, 0, p, sites);
    }
  }
}

// ---- Directed schedules at the span edges ----
//
// Replay re-derives a faulted element (direct) or tile channel (Winograd)
// as plain arithmetic between its sites and one hooked step at each, so
// its edges are the first and last window position or input channel, the
// bias add, several sites on one step or one op, and sites whose flips
// cross the sign. Random schedules rarely land there; these aim at them.

// Checks `sites` in schedule order and, when it has two sites, reversed.
void check_both_orders(const ConvEngine& engine, bool winograd, int m,
                       const ConvProblem& p, std::vector<FaultSite> sites) {
  check_replay(engine, winograd, m, p, sites);
  if (sites.size() == 2) {
    std::swap(sites[0], sites[1]);
    check_replay(engine, winograd, m, p, sites);
  }
}

// Op indices of the direct engine's MAC chain of output element e.
struct DirectOps {
  std::int64_t window = 0;
  std::int64_t adds_per = 0;

  explicit DirectOps(const ConvDesc& desc)
      : window(desc.in_c * desc.kh * desc.kw),
        adds_per(window + (desc.has_bias ? 1 : 0)) {}
  FaultSite mul(std::int64_t e, std::int64_t k, int bit) const {
    return {OpKind::kMul, e * window + k, bit};
  }
  FaultSite add(std::int64_t e, std::int64_t k, int bit) const {
    return {OpKind::kAdd, e * adds_per + k, bit};
  }
};

struct DirectGeometry {
  const char* name;
  ConvDesc desc;
};

std::vector<DirectGeometry> direct_edge_geometries() {
  ConvDesc base = small_desc();
  ConvDesc no_bias = base;
  no_bias.has_bias = false;
  ConvDesc strided = base;
  strided.stride = 2;
  strided.pad = 0;
  ConvDesc pointwise = base;
  pointwise.kh = pointwise.kw = 1;
  pointwise.pad = 0;
  ConvDesc wide = base;
  wide.kh = wide.kw = 5;
  wide.pad = 2;
  return {{"3x3", base},
          {"no bias", no_bias},
          {"stride 2 pad 0", strided},
          {"1x1", pointwise},
          {"5x5 pad 2", wide}};
}

TEST(DirectReplay, DirectedSpanEdges) {
  Rng rng(707);
  for (const DirectGeometry& geo : direct_edge_geometries()) {
    for (const DType dtype : {DType::kInt8, DType::kInt16}) {
      SCOPED_TRACE(std::string(geo.name) + (dtype == DType::kInt8
                                                ? " int8"
                                                : " int16"));
      const ConvDesc& desc = geo.desc;
      const ConvProblem p = make_problem(rng, desc, dtype);
      const OpSpace space = direct_engine().op_space(desc, dtype);
      const DirectOps ops(desc);
      const std::int64_t last = ops.window - 1;
      const std::int64_t mid = ops.window / 2;
      const int mtop = space.mul_bits - 1;  // crosses the product's sign
      const int atop = space.add_bits - 1;  // crosses the accumulator's
      const std::int64_t elements = desc.out_c * desc.out_h() * desc.out_w();
      const auto check = [&](std::vector<FaultSite> sites) {
        check_both_orders(direct_engine(), false, 0, p, std::move(sites));
      };
      for (const std::int64_t e : {std::int64_t{0}, elements / 2,
                                   elements - 1}) {
        // The first and last window position, each op kind.
        check({ops.mul(e, 0, mtop)});
        check({ops.add(e, 0, atop)});
        check({ops.mul(e, last, mtop)});
        check({ops.add(e, last, atop)});
        if (desc.has_bias) check({ops.add(e, ops.window, atop)});
        // A mul and an add on one MAC step.
        check({ops.add(e, mid, 3), ops.mul(e, mid, mtop)});
        check({ops.mul(e, 0, 1), ops.add(e, 0, atop)});
        check({ops.add(e, last, atop), ops.mul(e, last, mtop)});
        // Two sites on one op: different bits, and one bit twice.
        check({ops.mul(e, mid, mtop), ops.mul(e, mid, mtop - 1)});
        check({ops.add(e, mid, atop), ops.add(e, mid, 0)});
        check({ops.mul(e, last, 5), ops.mul(e, last, 5)});
        if (desc.has_bias) {
          check({ops.add(e, ops.window, atop), ops.add(e, ops.window, 2)});
        }
        // Adjacent steps: one segment between them is empty.
        check({ops.mul(e, 1, mtop), ops.add(e, 0, atop)});
        // Every site of the schedule on one element, bias add first.
        std::vector<FaultSite> all;
        if (desc.has_bias) all.push_back(ops.add(e, ops.window, atop));
        all.push_back(ops.mul(e, last, mtop));
        all.push_back(ops.add(e, 0, atop - 1));
        all.push_back(ops.mul(e, 0, mtop));
        all.push_back(ops.add(e, mid, atop));
        all.push_back(ops.mul(e, mid, 0));
        all.push_back(ops.add(e, last, atop));
        all.push_back(ops.mul(e, mid, mtop));
        check(all);
      }
      // Random schedules confined to one element: many sites per chain.
      for (int trial = 0; trial < 10; ++trial) {
        const std::int64_t e = static_cast<std::int64_t>(
            rng.next_below(static_cast<std::uint64_t>(elements)));
        std::vector<FaultSite> sites;
        for (int s = 0; s < 12; ++s) {
          const bool mul = rng.bernoulli(0.5);
          const std::int64_t k = static_cast<std::int64_t>(rng.next_below(
              static_cast<std::uint64_t>(mul ? ops.window : ops.adds_per)));
          const int bit = static_cast<int>(rng.next_below(
              static_cast<std::uint64_t>(mul ? space.mul_bits
                                             : space.add_bits)));
          sites.push_back(mul ? ops.mul(e, k, bit) : ops.add(e, k, bit));
        }
        check(sites);
      }
    }
  }
}

// Op indices of a Winograd layer (see the layout in winograd_conv.h).
struct WinogradOps {
  WgLayout layout;
  ConvDesc desc;

  std::int64_t chan(std::int64_t oc, std::int64_t ic, std::int64_t t,
                    std::int64_t pos) const {
    return ((oc * desc.in_c + ic) * layout.tiles + t) * layout.a2 + pos;
  }
  FaultSite mul(std::int64_t oc, std::int64_t ic, std::int64_t t,
                std::int64_t pos, int bit) const {
    return {OpKind::kMul, chan(oc, ic, t, pos), bit};
  }
  FaultSite a(std::int64_t ic, std::int64_t t, std::int64_t j, int bit) const {
    return {OpKind::kAdd, (ic * layout.tiles + t) * layout.k_it + j, bit};
  }
  FaultSite b(std::int64_t oc, std::int64_t ic, std::int64_t t,
              std::int64_t pos, int bit) const {
    return {OpKind::kAdd, layout.base_b + chan(oc, ic, t, pos), bit};
  }
  FaultSite c(std::int64_t oc, std::int64_t t, std::int64_t j, int bit) const {
    return {OpKind::kAdd,
            layout.base_c + (oc * layout.tiles + t) * layout.k_inv + j, bit};
  }
  // Bias add of output (dy, dx) of tile t, clamped into a partial tile.
  FaultSite d(std::int64_t oc, std::int64_t t, int m, int bit,
              std::int64_t dy = 0, std::int64_t dx = 0) const {
    const std::int64_t oy =
        std::min(t / layout.tx_count * m + dy, desc.out_h() - 1);
    const std::int64_t ox =
        std::min(t % layout.tx_count * m + dx, desc.out_w() - 1);
    return {OpKind::kAdd,
            layout.base_d + (oc * desc.out_h() + oy) * desc.out_w() + ox, bit};
  }
};

TEST_P(WinogradReplay, DirectedSpanEdges) {
  const int m = GetParam();
  Rng rng(808 + m);
  const ConvDesc desc = small_desc();
  const WinogradOps ops{WgLayout::make(winograd_plan(m), desc), desc};
  const WgLayout& layout = ops.layout;
  const auto& engine = winograd_engine(m);
  const std::int64_t last_ic = desc.in_c - 1;
  const std::int64_t last_pos = layout.a2 - 1;
  // The 9x7 output leaves the last tile row and column partial.
  ASSERT_NE(desc.out_h() % m, 0);
  ASSERT_NE(desc.out_w() % m, 0);
  const std::int64_t corner = 0;
  const std::int64_t border_row = (layout.ty_count - 1) * layout.tx_count;
  const std::int64_t border_col = layout.tx_count - 1;
  const std::int64_t border_corner = layout.tiles - 1;
  for (const DType dtype : {DType::kInt8, DType::kInt16}) {
    SCOPED_TRACE(dtype == DType::kInt8 ? "int8" : "int16");
    const ConvProblem p = make_problem(rng, desc, dtype);
    const OpSpace space = engine.op_space(desc, dtype);
    const int mtop = space.mul_bits - 1;
    const int atop = space.add_bits - 1;
    const auto check = [&](std::vector<FaultSite> sites) {
      check_both_orders(engine, true, m, p, std::move(sites));
    };
    for (const std::int64_t t : {corner, border_row, border_col,
                                 border_corner}) {
      SCOPED_TRACE("tile " + std::to_string(t));
      // One tile carrying block A, B, C and D sites and a mul together.
      check({ops.d(3, t, m, atop, m - 1, m - 1),
             ops.c(1, t, layout.k_inv - 1, atop),
             ops.b(2, 0, t, 5, atop), ops.a(1, t, layout.k_it / 2, atop),
             ops.mul(0, last_ic, t, 0, mtop)});
      // Two block-B sites on one (oc, pos) at different input channels.
      check({ops.b(1, last_ic, t, 3, atop), ops.b(1, 0, t, 3, atop - 1)});
      check({ops.b(2, 0, t, last_pos, atop), ops.b(2, 1, t, last_pos, 0)});
      // A mul and a block-B add on one (oc, ic, pos).
      check({ops.b(0, 1, t, 0, atop), ops.mul(0, 1, t, 0, mtop)});
      check({ops.mul(3, last_ic, t, last_pos, mtop),
             ops.b(3, last_ic, t, last_pos, atop)});
      // Two sites on one op in the scaled domain.
      check({ops.mul(1, 1, t, 6, mtop), ops.mul(1, 1, t, 6, mtop - 1)});
      check({ops.b(2, last_ic, t, 7, atop), ops.b(2, last_ic, t, 7, 1)});
      check({ops.c(0, t, 0, atop), ops.c(0, t, 0, atop - 2)});
      check({ops.d(2, t, m, atop), ops.d(2, t, m, 0)});
      check({ops.d(1, t, m, atop, 0, m - 1), ops.d(1, t, m, atop, m - 1, 0)});
      // Block-A sites on the last input channel, alone and with others.
      check({ops.a(last_ic, t, layout.k_it - 1, atop)});
      check({ops.a(last_ic, t, 0, atop), ops.b(0, last_ic, t, 0, atop)});
      check({ops.a(last_ic, t, 1, atop), ops.a(0, t, 1, atop - 1)});
      // The first and last input channel of the channel sum.
      check({ops.mul(2, 0, t, 0, mtop), ops.mul(2, last_ic, t, last_pos, 3)});
    }
    // Random schedules confined to one border tile: every block at once.
    const OpSpace os = engine.op_space(desc, dtype);
    for (int trial = 0; trial < 10; ++trial) {
      const std::int64_t t = trial % 2 == 0 ? border_corner : border_row;
      std::vector<FaultSite> sites;
      for (int s = 0; s < 12; ++s) {
        const auto pick = [&](std::int64_t n) {
          return static_cast<std::int64_t>(
              rng.next_below(static_cast<std::uint64_t>(n)));
        };
        const std::int64_t oc = pick(desc.out_c), ic = pick(desc.in_c);
        const int abit = static_cast<int>(pick(os.add_bits));
        switch (pick(5)) {
          case 0:
            sites.push_back(ops.mul(oc, ic, t, pick(layout.a2),
                                    static_cast<int>(pick(os.mul_bits))));
            break;
          case 1:
            sites.push_back(ops.a(ic, t, pick(layout.k_it), abit));
            break;
          case 2:
            sites.push_back(ops.b(oc, ic, t, pick(layout.a2), abit));
            break;
          case 3:
            sites.push_back(ops.c(oc, t, pick(layout.k_inv), abit));
            break;
          default:
            sites.push_back(ops.d(oc, t, m, abit, pick(m), pick(m)));
        }
      }
      check(sites);
    }
  }
}

// Two flips on one op commute in the direct engine (scale 1: each is an
// XOR), but not always in the scaled Winograd domain: a flip reads its bit
// from the truncated value / S, so a first flip that takes a value in
// (-S, 0) across zero changes the bit the second one reads. One input and
// one weight are nonzero here, so tile 0 has such a product; replay must
// apply the two sites in schedule order, as the per-op hook does.
TEST_P(WinogradReplay, SameOpSitesApplyInScheduleOrder) {
  const int m = GetParam();
  Rng rng(909 + m);
  const ConvDesc desc = small_desc();
  ConvProblem p = make_problem(rng, desc, DType::kInt16);
  p.input.fill(0);
  p.weights.fill(0);
  p.input.at(0, 0, 0, 0) = 1;
  p.weights.at(0, 0, 0, 0) = -1;
  p.acc_scale = 1.0;  // one accumulator unit per output quantum
  p.out_quant.scale = 1.0;
  const WinogradPlan& plan = winograd_plan(m);
  const WinogradOps ops{WgLayout::make(plan, desc), desc};
  const auto& engine =
      static_cast<const WinogradConvEngine&>(winograd_engine(m));

  // Tile 0's products of (oc 0, ic 0): U (.) V, V from a one-hot patch.
  const std::vector<std::int64_t> u = engine.transform_filters(desc, p.data());
  std::vector<std::int64_t> patch(static_cast<std::size_t>(ops.layout.a2), 0);
  std::vector<std::int64_t> v(patch.size());
  patch[static_cast<std::size_t>(desc.pad * plan.alpha + desc.pad)] = 1;
  transform_two_pass(plan.bt, patch.data(), v.data(), 0,
                     [](std::int64_t, std::int64_t value) { return value; });
  std::int64_t pos = -1;
  for (std::size_t q = 0; q < v.size() && pos < 0; ++q) {
    const std::int64_t prod = u[q] * v[q];
    if (prod < 0 && prod > -plan.total_scale) {
      pos = static_cast<std::int64_t>(q);
    }
  }
  ASSERT_GE(pos, 0) << "no product in (-S, 0)";

  // The mul itself, then block B's add, whose first value is that product.
  for (const bool add : {false, true}) {
    SCOPED_TRACE(add ? "block B" : "mul");
    const auto site = [&](int bit) {
      return add ? ops.b(0, 0, 0, pos, bit) : ops.mul(0, 0, 0, pos, bit);
    };
    const std::vector<FaultSite> up = {site(2), site(3)};
    const std::vector<FaultSite> down = {site(3), site(2)};
    check_replay(engine, true, m, p, up);
    check_replay(engine, true, m, p, down);
    EXPECT_NE(count_diffs(winograd_forward_instrumented(m, desc, p.data(), up),
                          winograd_forward_instrumented(m, desc, p.data(),
                                                        down)),
              0)
        << "the two orders agree, so this case cannot catch a reordering";
  }
}

// An input-transform fault must be able to corrupt outputs across *all*
// output channels of its tile (the fan-out the replay must honor).
TEST(WinogradReplay, InputTransformFaultFansOutAcrossChannels) {
  Rng rng(505);
  ConvDesc desc = small_desc();
  desc.out_c = 6;
  const ConvProblem p = make_problem(rng, desc, DType::kInt16);
  const auto& engine = winograd_engine(2);
  const WgLayout layout = WgLayout::make(winograd_plan_f2(), desc);
  const TensorI32 golden = engine.forward(desc, p.data());

  // High bit of an early input-transform add of tile 0, channel 0.
  FaultSite site;
  site.kind = OpKind::kAdd;
  site.op_index = 3;  // within block A, tile 0
  site.bit = FaultModel::add_surface_bits(DType::kInt16) - 1;
  ASSERT_LT(site.op_index, layout.base_b);
  TensorI32 faulty = golden;
  engine.apply_faults(desc, p.data(), {&site, 1}, faulty);

  // Count distinct output channels touched.
  int channels_touched = 0;
  for (std::int64_t oc = 0; oc < desc.out_c; ++oc) {
    bool touched = false;
    for (std::int64_t y = 0; y < desc.out_h() && !touched; ++y)
      for (std::int64_t x = 0; x < desc.out_w() && !touched; ++x)
        touched = faulty.at(0, oc, y, x) != golden.at(0, oc, y, x);
    channels_touched += touched;
  }
  EXPECT_GT(channels_touched, 1)
      << "input-transform fault should corrupt multiple output channels";
}

// Faults outside their tile must leave other outputs untouched.
TEST(WinogradReplay, FaultLocality) {
  Rng rng(606);
  const ConvDesc desc = small_desc();
  const ConvProblem p = make_problem(rng, desc, DType::kInt16);
  const auto& engine = winograd_engine(2);
  const TensorI32 golden = engine.forward(desc, p.data());
  const OpSpace space = engine.op_space(desc, DType::kInt16);

  FaultSite site;
  site.kind = OpKind::kMul;
  site.op_index = space.n_mul - 1;  // last tile, last output channel
  site.bit = space.mul_bits - 1;
  TensorI32 faulty = golden;
  engine.apply_faults(desc, p.data(), {&site, 1}, faulty);
  // Damage confined to one m x m tile of one channel: at most m*m diffs.
  EXPECT_LE(count_diffs(golden, faulty), 4);
}

}  // namespace
}  // namespace winofault
