// Tests for the per-inference fault session: injection modes, layer
// exclusion, op-kind restriction, protection, the Fig 1 property that
// neuron-level injection cannot distinguish conv algorithms while
// operation-level injection can, and the pinned draw sequence of every
// fault model.
#include <gtest/gtest.h>
#include <cstdlib>

#include "common/hash.h"
#include "fault/models/overlay.h"
#include "nn/dataset.h"
#include "nn/fault_session.h"
#include "nn/network.h"

namespace winofault {
namespace {

// This suite asserts the numeric semantics of the built-in flip@op
// injector (expected flip counts, degradation curves). Pin the built-in
// model so the registry-model CI leg (WINOFAULT_FAULT_MODEL) can run the
// full suite without changing what this file tests.
const bool kBuiltinModelPinned = [] {
  unsetenv("WINOFAULT_FAULT_MODEL");
  return true;
}();

Network small_net(DType dtype = DType::kInt16) {
  Network net("small", dtype);
  Rng rng(17);
  int x = net.add_input(Shape{1, 3, 16, 16});
  x = net.add_conv(x, 8, 3, 1, 1, rng);
  x = net.add_conv(x, 8, 3, 1, 1, rng);
  x = net.add_global_avgpool(x);
  x = net.add_flatten(x);
  x = net.add_linear(x, 4, rng);
  net.set_output(x);
  net.calibrate(make_images(net.input_shape(), 3, 5));
  return net;
}

TEST(FaultSession, ZeroBerIsIdentity) {
  const Network net = small_net();
  const auto images = make_images(net.input_shape(), 3, 21);
  for (const TensorF& image : images) {
    ExecContext clean_ctx;
    const TensorI32 clean = net.forward(image, clean_ctx);
    FaultConfig config;
    config.ber = 0.0;
    FaultSession session(config, 33);
    ExecContext ctx;
    ctx.session = &session;
    const TensorI32 out = net.forward(image, ctx);
    EXPECT_EQ(clean, out);
    EXPECT_EQ(session.total_flips(), 0);
  }
}

TEST(FaultSession, HighBerCorruptsOutputs) {
  const Network net = small_net();
  const auto images = make_images(net.input_shape(), 2, 22);
  FaultConfig config;
  config.ber = 1e-5;
  int corrupted = 0;
  for (const TensorF& image : images) {
    ExecContext clean_ctx;
    const TensorI32 clean = net.forward(image, clean_ctx);
    FaultSession session(config, 44);
    ExecContext ctx;
    ctx.session = &session;
    const TensorI32 out = net.forward(image, ctx);
    EXPECT_GT(session.total_flips(), 0);
    corrupted += !(clean == out);
  }
  EXPECT_GT(corrupted, 0);
}

TEST(FaultSession, SameSeedReproducesExactly) {
  const Network net = small_net();
  const auto images = make_images(net.input_shape(), 1, 23);
  FaultConfig config;
  config.ber = 1e-6;
  for (const ConvPolicy policy :
       {ConvPolicy::kDirect, ConvPolicy::kWinograd2}) {
    FaultSession s1(config, 777), s2(config, 777);
    ExecContext c1, c2;
    c1.policy = c2.policy = policy;
    c1.session = &s1;
    c2.session = &s2;
    const TensorI32 a = net.forward(images[0], c1);
    const TensorI32 b = net.forward(images[0], c2);
    EXPECT_EQ(a, b);
    EXPECT_EQ(s1.total_flips(), s2.total_flips());
  }
}

TEST(FaultSession, FaultFreeLayerIsExcluded) {
  const Network net = small_net();
  const auto images = make_images(net.input_shape(), 1, 24);
  // With every layer excluded one at a time at extreme BER, flips drop
  // relative to no exclusion.
  FaultConfig all;
  all.ber = 1e-5;
  FaultSession base(all, 55);
  ExecContext ctx_base;
  ctx_base.session = &base;
  net.forward(images[0], ctx_base);

  std::int64_t excluded_total = 0;
  for (int layer = 0; layer < net.num_protectable(); ++layer) {
    FaultConfig config = all;
    config.fault_free_layer = layer;
    FaultSession session(config, 55);
    ExecContext ctx;
    ctx.session = &session;
    net.forward(images[0], ctx);
    EXPECT_LE(session.total_flips(), base.total_flips());
    excluded_total += session.total_flips();
  }
  // Summed over all single-layer exclusions, (P-1) * base flips expected.
  EXPECT_LT(excluded_total, net.num_protectable() * base.total_flips());
}

TEST(FaultSession, OnlyKindRestriction) {
  const Network net = small_net();
  const auto images = make_images(net.input_shape(), 1, 25);
  FaultConfig mul_only;
  mul_only.ber = 1e-5;
  mul_only.only_kind = OpKind::kMul;
  FaultConfig add_only = mul_only;
  add_only.only_kind = OpKind::kAdd;
  FaultSession sm(mul_only, 66), sa(add_only, 66);
  ExecContext cm, ca;
  cm.session = &sm;
  ca.session = &sa;
  net.forward(images[0], cm);
  net.forward(images[0], ca);
  EXPECT_GT(sm.total_flips(), 0);
  EXPECT_GT(sa.total_flips(), 0);
}

TEST(FaultSession, FullProtectionRestoresCleanOutput) {
  const Network net = small_net();
  const auto images = make_images(net.input_shape(), 2, 26);
  FaultConfig config;
  config.ber = 1e-5;
  for (int p = 0; p < net.num_protectable(); ++p)
    config.protection.emplace(p, ProtectionSet(1.0, 1.0));
  for (const TensorF& image : images) {
    ExecContext clean_ctx;
    const TensorI32 clean = net.forward(image, clean_ctx);
    FaultSession session(config, 88);
    ExecContext ctx;
    ctx.session = &session;
    const TensorI32 out = net.forward(image, ctx);
    EXPECT_EQ(clean, out);
    EXPECT_EQ(session.total_flips(), 0);
  }
}

// The Fig 1 mechanism: neuron-level injection samples the *same* fault
// space for direct and Winograd execution (activation tensors are
// identical), so per-seed it corrupts identically; operation-level
// injection samples engine-specific op spaces and diverges.
TEST(FaultSession, NeuronLevelCannotDistinguishEngines) {
  const Network net = small_net();
  const auto images = make_images(net.input_shape(), 3, 27);
  FaultConfig config;
  config.ber = 1e-4;
  config.mode = InjectionMode::kNeuronLevel;
  for (const TensorF& image : images) {
    FaultSession s_direct(config, 99), s_wino(config, 99);
    ExecContext cd, cw;
    cd.policy = ConvPolicy::kDirect;
    cd.session = &s_direct;
    cw.policy = ConvPolicy::kWinograd2;
    cw.session = &s_wino;
    const TensorI32 a = net.forward(image, cd);
    const TensorI32 b = net.forward(image, cw);
    EXPECT_EQ(a, b) << "neuron-level FI must be blind to the conv algorithm";
  }
}

TEST(FaultSession, OpLevelSeesSmallerWinogradMulSpace) {
  const Network net = small_net();
  const OpSpace direct = net.total_op_space(ConvPolicy::kDirect);
  const OpSpace wino = net.total_op_space(ConvPolicy::kWinograd4);
  EXPECT_LT(wino.n_mul, direct.n_mul);
  // Expected flip counts scale with the op-bit space.
  FaultModel model{1e-6};
  EXPECT_LT(model.expected_flips(wino), model.expected_flips(direct));
}

// Pins every fault draw sequence. Journal cells are keyed by
// campaign_point_hash and golden variants by the overlay digest, and
// neither covers code, so a change to any draw must bump
// kCampaignSemanticsVersion (core/store/hash.h). These digests were
// recorded from the code that wrote the journals of the current version:
// update them together with a bump, never alone.
void fold_plan(Fnv64& h, const FaultPlan& plan) {
  const auto fold_cells = [&](const auto& cells) {
    h.u64(cells.size());
    for (const auto& f : cells) h.i64(f.index).i32(f.bit);
  };
  h.u64(plan.layers.size()).i32(plan.first_faulted);
  for (const auto& layer : plan.layers) {
    h.u64(layer.sites.size());
    for (const FaultSite& s : layer.sites)
      h.u8(static_cast<std::uint8_t>(s.kind)).i64(s.op_index).i32(s.bit);
    fold_cells(layer.neurons);
    fold_cells(layer.weights);
    fold_cells(layer.accums);
  }
}

TEST(FaultSession, DrawSequenceIsPinned) {
  const Network net = small_net();
  const TensorF image = make_images(net.input_shape(), 1, 28)[0];
  FaultConfig op;
  op.ber = 1e-5;
  op.model = FaultModelSpec{};
  FaultConfig only_mul = op;
  only_mul.only_kind = OpKind::kMul;
  FaultConfig protected_layer = op;
  protected_layer.protection.emplace(1, ProtectionSet(0.5, 0.25));
  FaultConfig neuron = op;
  neuron.ber = 1e-4;
  neuron.mode = InjectionMode::kNeuronLevel;
  FaultConfig weight = neuron;
  weight.mode = InjectionMode::kOpLevel;
  weight.model = *FaultModelSpec::parse("stuck1@weight");
  FaultConfig accum = weight;
  accum.model = *FaultModelSpec::parse("toggle@accum");
  struct Case {
    const char* name;
    const FaultConfig& config;
    std::uint64_t direct;
    std::uint64_t winograd2;
  };
  const Case cases[] = {
      {"flip@op", op, 0x4709fbe0519ff0bdULL, 0x67bd423b41038b44ULL},
      {"flip@op mul only", only_mul, 0x389ff255a486aba9ULL,
       0x14595bad73fecf5bULL},
      {"flip@op protected", protected_layer, 0xdd42b02568885945ULL,
       0x34fc62396f61b40bULL},
      {"neuron-level", neuron, 0x64e9bc19d4577714ULL, 0x64e9bc19d4577714ULL},
      {"stuck1@weight", weight, 0x28cb9e8282f5a56cULL, 0x28cb9e8282f5a56cULL},
      {"toggle@accum", accum, 0xb41489329b7c9314ULL, 0xb41489329b7c9314ULL},
  };
  for (const Case& c : cases) {
    for (const ConvPolicy policy :
         {ConvPolicy::kDirect, ConvPolicy::kWinograd2}) {
      Fnv64 h;
      std::int64_t flips = 0;
      for (std::uint64_t seed = 1; seed <= 50; ++seed) {
        FaultSession planned(c.config, seed);
        fold_plan(h, planned.plan(net, policy));
        // A scratch forward draws the same faults as the plan.
        FaultSession scratch(c.config, seed);
        ExecContext ctx;
        ctx.policy = policy;
        ctx.session = &scratch;
        net.forward(image, ctx);
        EXPECT_EQ(scratch.total_flips(), planned.total_flips()) << c.name;
        flips += planned.total_flips();
      }
      EXPECT_GT(flips, 0) << c.name;  // not vacuous
      const std::uint64_t expected =
          policy == ConvPolicy::kDirect ? c.direct : c.winograd2;
      EXPECT_EQ(h.digest(), expected)
          << c.name << " under " << conv_policy_name(policy) << ": 0x"
          << std::hex << h.digest();
    }
  }

  const struct {
    const char* spec;
    std::uint64_t expected;
  } overlays[] = {
      {"stuck0@weight#perm", 0x587892c0ed148d41ULL},
      {"stuck1(0.01)@weight#perm", 0xbb0c3ac052c83099ULL},
      {"toggle@accum#perm", 0xc0fc288a9b7d6f7bULL},
  };
  for (const auto& o : overlays) {
    FaultConfig config = op;
    config.ber = 1e-3;
    config.model = *FaultModelSpec::parse(o.spec);
    Fnv64 h;
    std::int64_t sites = 0;
    for (std::uint64_t seed = 1; seed <= 50; ++seed) {
      const FaultOverlay overlay = build_fault_overlay(net, config, seed);
      h.u64(overlay.digest);
      sites += overlay.site_count;
    }
    EXPECT_GT(sites, 0) << o.spec;
    EXPECT_EQ(h.digest(), o.expected)
        << o.spec << ": 0x" << std::hex << h.digest();
  }
}

}  // namespace
}  // namespace winofault
