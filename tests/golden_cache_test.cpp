// Exactness proofs for the incremental fault-replay pipeline:
//   (a) the im2col + blocked GEMM fast path of the direct engine is
//       bit-identical to the instrumented reference loop across a
//       stride/pad/bias/kernel shape sweep, and
//   (b) cached incremental replay (Network::make_golden + forward_replay)
//       equals scratch execution for every trial — op-level, neuron-level,
//       and protected (TMR / fault-free-layer / op-kind) sessions, on both
//       hand-built and zoo models, under direct and Winograd policies —
//       and so does every conv node it replays by delta, also when several
//       threads replay one fresh golden at once; every golden conv output
//       is the requantization of its accumulators, which delta replay
//       rests on.
#include <gtest/gtest.h>

#include <latch>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "conv/direct_conv.h"
#include "conv/engine.h"
#include "conv/fault_hook.h"
#include "conv/gemm_kernel.h"
#include "conv/instrumented_ref.h"
#include "core/campaign/campaign.h"
#include "nn/models/zoo.h"
#include "test_util.h"

namespace winofault {
namespace {

using testing::ConvProblem;
using testing::expect_tensors_equal;
using testing::make_problem;

// ---- (a) GEMM fast path vs reference loop ----

struct GemmCase {
  std::int64_t in_c, in_h, in_w, out_c, k, stride, pad;
  bool bias;
  DType dtype;
};

std::string gemm_case_name(const ::testing::TestParamInfo<GemmCase>& info) {
  const GemmCase& c = info.param;
  char buf[96];
  std::snprintf(buf, sizeof(buf), "ic%lld_h%lld_w%lld_oc%lld_k%lld_s%lld_p%lld_%s_%s",
                static_cast<long long>(c.in_c), static_cast<long long>(c.in_h),
                static_cast<long long>(c.in_w), static_cast<long long>(c.out_c),
                static_cast<long long>(c.k), static_cast<long long>(c.stride),
                static_cast<long long>(c.pad), c.bias ? "bias" : "nobias",
                dtype_name(c.dtype));
  return buf;
}

class GemmFastPath : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmFastPath, BitIdenticalToReference) {
  const GemmCase& c = GetParam();
  Rng rng(0xC0FFEEULL + static_cast<std::uint64_t>(
                            c.in_c * 1009 + c.in_h * 131 + c.stride * 7));
  ConvDesc desc;
  desc.in_c = c.in_c;
  desc.in_h = c.in_h;
  desc.in_w = c.in_w;
  desc.out_c = c.out_c;
  desc.kh = desc.kw = c.k;
  desc.stride = c.stride;
  desc.pad = c.pad;
  desc.has_bias = c.bias;
  const ConvProblem p = make_problem(rng, desc, c.dtype);
  const TensorI32 ref = direct_forward_instrumented(desc, p.data(), {});
  const TensorI32 gemm = direct_forward_gemm(desc, p.data());
  expect_tensors_equal(ref, gemm, "gemm vs reference");
  // The engine's public forward routes through the fast path.
  expect_tensors_equal(ref, direct_engine().forward(desc, p.data()),
                       "gemm vs engine.forward");
}

INSTANTIATE_TEST_SUITE_P(
    ShapeSweep, GemmFastPath,
    ::testing::Values(
        // 3x3 stride 1, the bulk of the zoo.
        GemmCase{3, 8, 8, 4, 3, 1, 1, true, DType::kInt16},
        GemmCase{3, 8, 8, 4, 3, 1, 1, false, DType::kInt8},
        // Strided convs (downsampling layers).
        GemmCase{4, 11, 9, 6, 3, 2, 1, true, DType::kInt16},
        GemmCase{4, 16, 16, 8, 3, 2, 0, true, DType::kInt8},
        // 1x1 pointwise (takes the zero-copy im2col shortcut).
        GemmCase{8, 7, 7, 16, 1, 1, 0, true, DType::kInt16},
        GemmCase{8, 7, 7, 16, 1, 1, 0, false, DType::kInt16},
        // 1x1 strided (shortcut must NOT apply).
        GemmCase{8, 8, 8, 4, 1, 2, 0, true, DType::kInt16},
        // 5x5 and 7x7 kernels, larger padding.
        GemmCase{2, 12, 12, 3, 5, 1, 2, true, DType::kInt16},
        GemmCase{3, 14, 14, 2, 7, 2, 3, true, DType::kInt8},
        // Linear-layer geometry: 1x1 over a [1, F, 1, 1] activation.
        GemmCase{64, 1, 1, 10, 1, 1, 0, true, DType::kInt16},
        // Channel counts straddling the GEMM's oc-block width.
        GemmCase{5, 9, 9, 1, 3, 1, 1, true, DType::kInt16},
        GemmCase{5, 9, 9, 5, 3, 1, 1, false, DType::kInt16},
        GemmCase{16, 33, 29, 13, 3, 1, 1, true, DType::kInt16}),
    gemm_case_name);

TEST(GemmFastPath, RandomShapeSweep) {
  Rng rng(0xFEEDULL);
  for (int trial = 0; trial < 40; ++trial) {
    ConvDesc desc;
    desc.in_c = 1 + static_cast<std::int64_t>(rng.next_below(8));
    desc.in_h = 3 + static_cast<std::int64_t>(rng.next_below(14));
    desc.in_w = 3 + static_cast<std::int64_t>(rng.next_below(14));
    desc.out_c = 1 + static_cast<std::int64_t>(rng.next_below(9));
    desc.kh = desc.kw = 1 + 2 * static_cast<std::int64_t>(rng.next_below(3));
    desc.stride = 1 + static_cast<std::int64_t>(rng.next_below(2));
    desc.pad = static_cast<std::int64_t>(rng.next_below(3));
    desc.has_bias = rng.bernoulli(0.5);
    if (desc.in_h < desc.kh || desc.in_w < desc.kw) continue;
    const DType dtype = rng.bernoulli(0.5) ? DType::kInt8 : DType::kInt16;
    const ConvProblem p = make_problem(rng, desc, dtype);
    expect_tensors_equal(direct_forward_instrumented(desc, p.data(), {}),
                         direct_forward_gemm(desc, p.data()),
                         "random gemm vs reference");
  }
}

TEST(GemmFastPath, AccAbsmaxMatchesReferenceScan) {
  Rng rng(0xABCULL);
  ConvDesc desc;
  desc.in_c = 6;
  desc.in_h = 10;
  desc.in_w = 8;
  desc.out_c = 5;
  const ConvProblem p = make_problem(rng, desc, DType::kInt16);
  std::int64_t expected = 1;
  FaultHookNone hook;
  for (std::int64_t oc = 0; oc < desc.out_c; ++oc) {
    for (std::int64_t oy = 0; oy < desc.out_h(); ++oy) {
      for (std::int64_t ox = 0; ox < desc.out_w(); ++ox) {
        const std::int64_t acc =
            direct_output_acc(desc, p.data(), oc, oy, ox, hook);
        expected = std::max(expected, acc < 0 ? -acc : acc);
      }
    }
  }
  EXPECT_EQ(direct_acc_absmax(desc, p.data()), expected);
}

// ---- (b) cached incremental replay vs scratch execution ----

// Small DAG with a residual branch so the replay's dirty-cone logic crosses
// an Add join, plus pooling, flatten and a classifier.
Network replay_net() {
  Network net("replaynet", DType::kInt16);
  Rng rng(71);
  int x = net.add_input(Shape{1, 3, 12, 12});
  x = net.add_conv(x, 8, 3, 1, 1, rng);
  const int trunk = net.add_conv(x, 8, 3, 1, 1, rng);
  int branch = net.add_conv(trunk, 8, 3, 1, 1, rng);
  x = net.add_add(trunk, branch);
  x = net.add_maxpool(x, 2, 2);
  x = net.add_conv(x, 8, 5, 1, 2, rng);   // 5x5: always on the direct engine
  x = net.add_conv(x, 12, 3, 2, 1, rng);  // strided: Winograd falls back
  x = net.add_global_avgpool(x);
  x = net.add_flatten(x);
  x = net.add_linear(x, 5, rng);
  net.set_output(x);
  net.calibrate(make_images(net.input_shape(), 3, 17));
  return net;
}

// Asserts scratch forward == cached replay, trial by trial, for the given
// config across seeds and policies; also checks flip-count bookkeeping.
// Like a campaign, it builds one golden per image and replays it under
// every policy.
void check_replay_matches_scratch(const Network& net, const FaultConfig& config,
                                  int seeds, const char* what) {
  const std::vector<TensorF> images = make_images(net.input_shape(), 2, 99);
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
        ASSERT_EQ(scratch_session.total_flips(),
                  replay_session.total_flips())
            << what << " flip accounting (seed " << seed << ")";
      }
    }
  }
}

TEST(CachedReplay, OpLevelMatchesScratch) {
  const Network net = replay_net();
  for (const double ber : {3e-8, 1e-6, 5e-5}) {
    FaultConfig config;
    config.ber = ber;
    check_replay_matches_scratch(net, config, 12, "op-level replay");
  }
}

TEST(CachedReplay, NeuronLevelMatchesScratch) {
  const Network net = replay_net();
  for (const double ber : {1e-6, 1e-4}) {
    FaultConfig config;
    config.ber = ber;
    config.mode = InjectionMode::kNeuronLevel;
    check_replay_matches_scratch(net, config, 12, "neuron-level replay");
  }
}

TEST(CachedReplay, ProtectedSessionsMatchScratch) {
  const Network net = replay_net();
  // Fine-grained TMR on some layers (partial coverage exercises the
  // sampler's rejection path inside plan()).
  FaultConfig tmr;
  tmr.ber = 5e-5;
  tmr.protection[0] = ProtectionSet(1.0, 1.0);
  tmr.protection[2] = ProtectionSet(0.5, 0.25);
  check_replay_matches_scratch(net, tmr, 10, "TMR-protected replay");

  // Fault-free layer exclusion (Fig 3 protocol): the excluded layer draws
  // nothing, shifting which layers fault.
  for (int fault_free = 0; fault_free < net.num_protectable(); ++fault_free) {
    FaultConfig excl;
    excl.ber = 2e-5;
    excl.fault_free_layer = fault_free;
    check_replay_matches_scratch(net, excl, 3, "fault-free-layer replay");
  }

  // Op-kind restriction (Fig 4 protocol).
  for (const OpKind kind : {OpKind::kMul, OpKind::kAdd}) {
    FaultConfig only;
    only.ber = 2e-5;
    only.only_kind = kind;
    check_replay_matches_scratch(net, only, 6, "op-kind-restricted replay");
  }
}

TEST(CachedReplay, UnfaultedTrialReturnsCachedPrediction) {
  const Network net = replay_net();
  const TensorF image = make_images(net.input_shape(), 1, 5)[0];
  const GoldenCache golden = net.make_golden(image, ConvPolicy::kDirect);
  FaultConfig config;  // ber 0: no faults ever
  FaultSession session(config, 1);
  EXPECT_EQ(net.predict_replay(golden, session), golden.prediction());
  ExecContext ctx;
  EXPECT_EQ(net.predict(image, ctx), golden.prediction());
}

TEST(CachedReplay, ZooModelMatchesScratch) {
  // Every Fig. 2 network, so replay is checked against scratch across
  // ResNet50's downsample Adds, DenseNet169's concat chains and
  // GoogLeNet's inception concats as well as VGG19's plain chain.
  ZooConfig config;
  config.width = 0.125;
  config.calib_images = 2;
  for (const ZooEntry& entry : model_zoo()) {
    const Network net = entry.build(config);
    const TensorF image = make_images(net.input_shape(), 1, 3)[0];
    const GoldenCache golden = net.make_golden(image, ConvPolicy::kDirect);
    for (const InjectionMode mode :
         {InjectionMode::kOpLevel, InjectionMode::kNeuronLevel}) {
      FaultConfig fault;
      // The BERs and floors below assume flip@op, not the process default.
      fault.model = FaultModelSpec{};
      fault.mode = mode;
      fault.ber = mode == InjectionMode::kOpLevel ? 1e-8 : 2e-6;
      const std::string what =
          entry.name + (mode == InjectionMode::kOpLevel ? " op" : " neuron");
      int faulted = 0;
      int reached_logits = 0;
      for (const ConvPolicy policy :
           {ConvPolicy::kDirect, ConvPolicy::kWinograd2}) {
        for (int seed = 1; seed <= 5; ++seed) {
          FaultSession scratch_session(fault,
                                       static_cast<std::uint64_t>(seed));
          ExecContext ctx;
          ctx.policy = policy;
          ctx.session = &scratch_session;
          const TensorI32 scratch = net.forward(image, ctx);
          FaultSession replay_session(fault, static_cast<std::uint64_t>(seed));
          const TensorI32 replay =
              net.forward_replay(golden, policy, replay_session);
          expect_tensors_equal(scratch, replay, what.c_str());
          faulted += replay_session.total_flips() > 0;
          reached_logits += replay != golden.logits();
        }
      }
      // Not vacuous: most trials flip bits, and some cones reach the
      // logits.
      EXPECT_GE(faulted, 6) << what;
      EXPECT_GT(reached_logits, 0) << what;
    }
  }
}

// Every conv or linear node a replay recomputes must equal a dense
// recompute of that node from the same replayed input with the same faults
// (ConvLayer::forward_replay with no golden, a scratch forward's path). An
// output the delta replay missed fails here even when it requantizes away
// before the logits.
TEST(CachedReplay, EveryReplayedConvMatchesItsDenseRecompute) {
  ZooConfig config;
  config.width = 0.125;
  config.calib_images = 2;
  struct Model {
    const char* what;
    const char* spec;
    InjectionMode mode;
    double ber;
  };
  const Model models[] = {
      {"flip@op", "flip@op", InjectionMode::kOpLevel, 1e-8},
      {"neuron", "flip@op", InjectionMode::kNeuronLevel, 2e-6},
      {"stuck1@weight", "stuck1@weight", InjectionMode::kOpLevel, 1e-6},
  };
  for (const ZooEntry& entry : model_zoo()) {
    const Network net = entry.build(config);
    const TensorF image = make_images(net.input_shape(), 1, 3)[0];
    const GoldenCache golden = net.make_golden(image, ConvPolicy::kDirect);
    std::vector<int> prot_of_node(static_cast<std::size_t>(net.num_nodes()),
                                  -1);
    for (int p = 0; p < net.num_protectable(); ++p) {
      prot_of_node[static_cast<std::size_t>(net.protectable_node(p))] = p;
    }
    for (const Model& m : models) {
      FaultConfig fault;
      fault.model = *FaultModelSpec::parse(m.spec);
      fault.mode = m.mode;
      fault.ber = m.ber;
      const std::string what = entry.name + " " + m.what;
      int delta_nodes = 0;  // replayed because of a dirty input or weights
      for (const ConvPolicy policy :
           {ConvPolicy::kDirect, ConvPolicy::kWinograd2}) {
        for (int seed = 1; seed <= 3; ++seed) {
          FaultSession twin(fault, static_cast<std::uint64_t>(seed));
          const FaultPlan plan = twin.plan(net, policy);
          FaultSession session(fault, static_cast<std::uint64_t>(seed));
          net.forward_replay(
              golden, policy, session,
              [&](int node, std::span<const NodeOutput* const> ins,
                  const TensorI32& out) {
                const int p = prot_of_node[static_cast<std::size_t>(node)];
                if (p < 0) return;
                const FaultPlan::LayerFaults& faults =
                    plan.layers[static_cast<std::size_t>(p)];
                const TensorI32 dense = net.protectable_layer(p).forward_replay(
                    ins, golden.node_output(node).quant, policy, faults,
                    fault.model.kind, nullptr);
                expect_tensors_equal(dense, out, what.c_str());
                delta_nodes += !faults.faulted() || !faults.weights.empty();
              });
        }
      }
      // Not vacuous: some nodes took the delta path.
      EXPECT_GT(delta_nodes, 0) << what;
    }
  }
}

// Delta replay requantizes every channel at a position its input change
// reaches, also a channel whose accumulator did not move, so it rests on
// golden.output == requantize(acc_g): at every conv and linear node of
// every zoo model, at int8 and int16, the golden's accumulators (as delta
// replay fills them) must requantize through requantize_span to exactly
// the golden output.
TEST(CachedReplay, GoldenOutputIsItsRequantizedAccumulators) {
  ZooConfig config;
  config.width = 0.125;
  config.calib_images = 2;
  for (const DType dtype : {DType::kInt8, DType::kInt16}) {
    config.dtype = dtype;
    for (const ZooEntry& entry : model_zoo()) {
      const Network net = entry.build(config);
      const TensorF image = make_images(net.input_shape(), 1, 3)[0];
      const GoldenCache golden = net.make_golden(image, ConvPolicy::kDirect);
      for (int p = 0; p < net.num_protectable(); ++p) {
        const ConvLayer& layer = net.protectable_layer(p);
        const int node = net.protectable_node(p);
        const NodeOutput& out = golden.node_output(node);
        std::vector<std::int64_t> bias_acc;
        const ConvData data = layer.make_data(
            golden.node_output(net.node_inputs(node)[0]), out.quant,
            bias_acc);
        const std::vector<std::int64_t> acc =
            direct_forward_acc(layer.desc(), data);
        TensorI32 requantized(out.tensor.shape());
        ASSERT_EQ(static_cast<std::int64_t>(acc.size()),
                  requantized.numel());
        requantize_span(acc.data(), requantized.numel(), data.acc_scale,
                        data.out_quant, requantized.data());
        const std::string what = entry.name + " " + dtype_name(dtype) +
                                 " protectable " + std::to_string(p);
        expect_tensors_equal(out.tensor, requantized, what.c_str());
      }
    }
  }
}

// Several threads replay one fresh golden at once, so the first replays of
// each node race to fill its golden accumulators. Every result must match
// a single-threaded run on a golden of its own.
TEST(CachedReplay, ConcurrentFirstReplaysOfOneGoldenMatchSerial) {
  const Network net = replay_net();
  const TensorF image = make_images(net.input_shape(), 1, 41)[0];
  FaultConfig config;
  config.model = FaultModelSpec{};
  config.ber = 1e-6;
  constexpr int kSeeds = 12;
  constexpr int kThreads = 4;
  const auto policy_of = [](int seed) {
    return seed % 2 == 0 ? ConvPolicy::kDirect : ConvPolicy::kWinograd2;
  };
  std::vector<TensorI32> serial;
  int changed = 0;
  {
    const GoldenCache golden = net.make_golden(image, ConvPolicy::kDirect);
    for (int seed = 1; seed <= kSeeds; ++seed) {
      FaultSession session(config, static_cast<std::uint64_t>(seed));
      serial.push_back(net.forward_replay(golden, policy_of(seed), session));
      changed += serial.back() != golden.logits();
    }
  }
  ASSERT_GT(changed, 0) << "no trial reached the logits";

  const GoldenCache golden = net.make_golden(image, ConvPolicy::kDirect);
  std::vector<std::vector<TensorI32>> got(
      kThreads, std::vector<TensorI32>(kSeeds));
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      // Threads start on neighbouring seeds, so they reach the same nodes'
      // first fills together.
      for (int k = 0; k < kSeeds; ++k) {
        const int seed = (k + t) % kSeeds + 1;
        FaultSession session(config, static_cast<std::uint64_t>(seed));
        got[static_cast<std::size_t>(t)][static_cast<std::size_t>(seed - 1)] =
            net.forward_replay(golden, policy_of(seed), session);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    for (int k = 0; k < kSeeds; ++k) {
      expect_tensors_equal(
          got[static_cast<std::size_t>(t)][static_cast<std::size_t>(k)],
          serial[static_cast<std::size_t>(k)], "concurrent replay");
    }
  }
}

TEST(Evaluator, ReuseGoldenMatchesScratchExactly) {
  const Network net = replay_net();
  const Dataset data = make_teacher_dataset(net, 16, 5, 0.9, 21);
  for (const InjectionMode mode :
       {InjectionMode::kOpLevel, InjectionMode::kNeuronLevel}) {
    CampaignPoint point;
    point.fault.ber = 4e-6;
    point.fault.mode = mode;
    point.seed = 13;
    point.trials = 4;
    point.policy = ConvPolicy::kWinograd2;
    point.reuse_golden = true;
    const EvalResult cached = evaluate(net, data, point);
    point.reuse_golden = false;
    const EvalResult scratch = evaluate(net, data, point);
    EXPECT_DOUBLE_EQ(cached.accuracy, scratch.accuracy);
    EXPECT_DOUBLE_EQ(cached.avg_flips, scratch.avg_flips);
    EXPECT_EQ(cached.images, scratch.images);
  }
}

TEST(Evaluator, TrialsAverageAndStayDeterministic) {
  const Network net = replay_net();
  const Dataset data = make_teacher_dataset(net, 10, 5, 0.9, 22);
  CampaignPoint point;
  point.fault.ber = 2e-6;
  point.seed = 5;
  point.trials = 8;
  const EvalResult serial = evaluate(net, data, point, /*threads=*/1);
  const EvalResult parallel = evaluate(net, data, point, /*threads=*/4);
  EXPECT_DOUBLE_EQ(serial.accuracy, parallel.accuracy);
  EXPECT_DOUBLE_EQ(serial.avg_flips, parallel.avg_flips);
}

}  // namespace
}  // namespace winofault
