// Equivalence proofs for incremental replay: forward_replay (cached
// activations upstream of the first fault, dense recompute of every dirty
// node, cone pruning where a node's output equals golden) must be
// bit-identical to a scratch forward with the same fault session — on
// graphs where the dirty cone crosses pooling, residual Adds, and
// channel-concatenations, under op-level, neuron-level, transient
// accumulator and transient weight-memory faults.
#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "nn/dataset.h"
#include "nn/network.h"
#include "test_util.h"

namespace winofault {
namespace {

// This suite asserts the numeric semantics of the built-in flip@op
// injector (expected flip counts, degradation curves). Pin the built-in
// model so the registry-model CI leg (WINOFAULT_FAULT_MODEL) can run the
// full suite without changing what this file tests; the registry-model
// cases below name their model explicitly.
const bool kBuiltinModelPinned = [] {
  unsetenv("WINOFAULT_FAULT_MODEL");
  return true;
}();

using testing::expect_tensors_equal;

// Residual graph: the cone from the trunk conv reaches the Add through two
// paths of different depth, then crosses a max pool into the next conv.
Network eltwise_net() {
  Network net("sparse-eltwise", DType::kInt16);
  Rng rng(171);
  int x = net.add_input(Shape{1, 3, 12, 12});
  x = net.add_conv(x, 8, 3, 1, 1, rng);
  const int trunk = net.add_conv(x, 8, 3, 1, 1, rng);
  const int branch = net.add_conv(trunk, 8, 3, 1, 1, rng);
  x = net.add_add(trunk, branch);
  x = net.add_maxpool(x, 2, 2);
  x = net.add_conv(x, 12, 3, 1, 1, rng);
  x = net.add_global_avgpool(x);
  x = net.add_flatten(x);
  x = net.add_linear(x, 5, rng);
  net.set_output(x);
  net.calibrate(make_images(net.input_shape(), 3, 18));
  return net;
}

// Concat graph: two conv branches of different widths merge channel-wise,
// so a dirty cone entering from branch B lands behind A's channels, where
// the conv after the concat must read it.
// Branch convs are most of the protectable layers, so nearly every
// faulted trial drives a cone across the concat.
Network concat_net() {
  Network net("sparse-concat", DType::kInt16);
  Rng rng(173);
  int x = net.add_input(Shape{1, 3, 12, 12});
  const int stem = net.add_conv(x, 6, 3, 1, 1, rng);
  const int a = net.add_conv(stem, 4, 3, 1, 1, rng);
  const int b = net.add_conv(stem, 6, 5, 1, 2, rng);
  x = net.add_concat({a, b});
  x = net.add_conv(x, 10, 3, 1, 1, rng);
  x = net.add_avgpool(x, 2, 2);
  x = net.add_global_avgpool(x);
  x = net.add_flatten(x);
  x = net.add_linear(x, 5, rng);
  net.set_output(x);
  net.calibrate(make_images(net.input_shape(), 3, 19));
  return net;
}

// Pool-heavy graph: max, avg, and global-avg pooling back to back, with a
// padded max pool.
Network pool_net() {
  Network net("sparse-pool", DType::kInt16);
  Rng rng(177);
  int x = net.add_input(Shape{1, 3, 16, 16});
  x = net.add_conv(x, 8, 3, 1, 1, rng);
  x = net.add_maxpool(x, 3, 2, 1);
  x = net.add_conv(x, 12, 3, 1, 1, rng);
  x = net.add_avgpool(x, 2, 2);
  x = net.add_conv(x, 12, 3, 1, 1, rng);
  x = net.add_global_avgpool(x);
  x = net.add_flatten(x);
  x = net.add_linear(x, 5, rng);
  net.set_output(x);
  net.calibrate(make_images(net.input_shape(), 3, 20));
  return net;
}

// For each (image, policy, seed): scratch forward and cached replay must
// be bit-identical with identical flip accounting. One golden per image
// serves every policy, as in a campaign. Returns how many trials actually
// flipped bits, so callers can assert the sweep wasn't vacuously
// fault-free.
int check_replay_scratch(const Network& net, const FaultConfig& config,
                         int seeds, const char* what) {
  int faulted_trials = 0;
  const std::vector<TensorF> images = make_images(net.input_shape(), 2, 91);
  for (const TensorF& image : images) {
    const GoldenCache golden = net.make_golden(image, ConvPolicy::kDirect);
    for (const ConvPolicy policy : {ConvPolicy::kDirect, ConvPolicy::kWinograd2,
                                    ConvPolicy::kWinograd4}) {
      for (int seed = 1; seed <= seeds; ++seed) {
        FaultSession scratch_session(config, static_cast<std::uint64_t>(seed));
        ExecContext ctx;
        ctx.policy = policy;
        ctx.session = &scratch_session;
        const TensorI32 scratch = net.forward(image, ctx);

        FaultSession replay_session(config, static_cast<std::uint64_t>(seed));
        const TensorI32 replay =
            net.forward_replay(golden, policy, replay_session);

        expect_tensors_equal(scratch, replay, what);
        EXPECT_EQ(scratch_session.total_flips(), replay_session.total_flips())
            << what << " flip accounting (seed " << seed << ")";
        faulted_trials += replay_session.total_flips() > 0;
      }
    }
  }
  return faulted_trials;
}

TEST(SparseReplay, EltwiseGraphNeuronFaults) {
  const Network net = eltwise_net();
  FaultConfig config;
  config.ber = 1e-4;
  config.mode = InjectionMode::kNeuronLevel;
  EXPECT_GT(check_replay_scratch(net, config, 12, "eltwise neuron"), 20);
}

TEST(SparseReplay, EltwiseGraphOpFaults) {
  const Network net = eltwise_net();
  FaultConfig config;
  config.ber = 1e-6;
  EXPECT_GT(check_replay_scratch(net, config, 12, "eltwise op"), 10);
}

TEST(SparseReplay, ConeCrossesConcat) {
  const Network net = concat_net();
  FaultConfig config;
  config.ber = 1e-4;
  config.mode = InjectionMode::kNeuronLevel;
  EXPECT_GT(check_replay_scratch(net, config, 16, "concat neuron"), 25);
}

TEST(SparseReplay, ConcatGraphOpFaults) {
  const Network net = concat_net();
  FaultConfig config;
  config.ber = 1e-6;
  EXPECT_GT(check_replay_scratch(net, config, 12, "concat op"), 10);
}

TEST(SparseReplay, PoolGraphBothModes) {
  const Network net = pool_net();
  FaultConfig neuron;
  neuron.ber = 1e-4;
  neuron.mode = InjectionMode::kNeuronLevel;
  EXPECT_GT(check_replay_scratch(net, neuron, 10, "pool neuron"), 15);
  FaultConfig op;
  op.ber = 1e-6;
  EXPECT_GT(check_replay_scratch(net, op, 10, "pool op"), 8);
}

TEST(SparseReplay, HighFootprintFallsBackDenseAndStaysExact) {
  // A destruction-adjacent BER makes nearly every index dirty, so almost
  // nothing is pruned and the whole cone recomputes; it must still match
  // scratch bit for bit.
  const Network net = pool_net();
  FaultConfig config;
  config.ber = 1e-3;
  config.mode = InjectionMode::kNeuronLevel;
  EXPECT_GT(check_replay_scratch(net, config, 6, "high footprint"), 30);
}

// Registry targets that skip the op-site machinery: transient accumulator
// upsets patch stored outputs, transient weight upsets recompute the layer
// on a corrupted weight copy. Either way every dirty node downstream —
// Add, concat, max/avg/global pooling — goes through the same dispatch.
FaultConfig registry_config(const char* spec, double ber) {
  FaultConfig config;
  config.ber = ber;
  config.model = *FaultModelSpec::parse(spec);
  return config;
}

TEST(SparseReplay, AccumToggleOnEveryGraph) {
  const FaultConfig config = registry_config("toggle@accum", 1e-4);
  EXPECT_GT(check_replay_scratch(eltwise_net(), config, 8, "eltwise accum"),
            40);
  EXPECT_GT(check_replay_scratch(concat_net(), config, 8, "concat accum"),
            40);
  EXPECT_GT(check_replay_scratch(pool_net(), config, 8, "pool accum"), 40);
}

TEST(SparseReplay, WeightStuckOneOnEveryGraph) {
  const FaultConfig config = registry_config("stuck1@weight", 1e-3);
  EXPECT_GT(check_replay_scratch(eltwise_net(), config, 8, "eltwise weight"),
            40);
  EXPECT_GT(check_replay_scratch(concat_net(), config, 8, "concat weight"),
            40);
  EXPECT_GT(check_replay_scratch(pool_net(), config, 8, "pool weight"), 40);
}

}  // namespace
}  // namespace winofault
