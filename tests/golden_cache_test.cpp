// Exactness proofs for the incremental fault-replay pipeline:
//   (a) the im2col + blocked GEMM fast path of the direct engine is
//       bit-identical to the instrumented reference loop across a
//       stride/pad/bias/kernel shape sweep, and
//   (b) cached incremental replay (Network::make_golden + forward_replay)
//       equals scratch execution for every trial — op-level, neuron-level,
//       and protected (TMR / fault-free-layer / op-kind) sessions, on both
//       hand-built and zoo models, under direct and Winograd policies.
#include <gtest/gtest.h>

#include <vector>

#include "conv/direct_conv.h"
#include "conv/engine.h"
#include "conv/fault_hook.h"
#include "nn/evaluator.h"
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
  const TensorI32 ref = direct_forward_reference(desc, p.data());
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
    expect_tensors_equal(direct_forward_reference(desc, p.data()),
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
void check_replay_matches_scratch(const Network& net, const FaultConfig& config,
                                  int seeds, const char* what) {
  const std::vector<TensorF> images = make_images(net.input_shape(), 2, 99);
  for (const ConvPolicy policy :
       {ConvPolicy::kDirect, ConvPolicy::kWinograd2, ConvPolicy::kWinograd4}) {
    for (const TensorF& image : images) {
      const GoldenCache golden = net.make_golden(image, policy);
      for (int seed = 1; seed <= seeds; ++seed) {
        FaultSession scratch_session(config, static_cast<std::uint64_t>(seed));
        ExecContext ctx;
        ctx.policy = policy;
        ctx.session = &scratch_session;
        const TensorI32 scratch = net.forward(image, ctx);

        FaultSession replay_session(config, static_cast<std::uint64_t>(seed));
        const TensorI32 replay = net.forward_replay(golden, replay_session);

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
    const GoldenCache goldens[] = {
        net.make_golden(image, ConvPolicy::kDirect),
        net.make_golden(image, ConvPolicy::kWinograd2)};
    for (const InjectionMode mode :
         {InjectionMode::kOpLevel, InjectionMode::kNeuronLevel}) {
      FaultConfig fault;
      fault.mode = mode;
      fault.ber = mode == InjectionMode::kOpLevel ? 1e-8 : 2e-6;
      const std::string what =
          entry.name + (mode == InjectionMode::kOpLevel ? " op" : " neuron");
      int faulted = 0;
      int reached_logits = 0;
      for (const GoldenCache& golden : goldens) {
        for (int seed = 1; seed <= 5; ++seed) {
          FaultSession scratch_session(fault,
                                       static_cast<std::uint64_t>(seed));
          ExecContext ctx;
          ctx.policy = golden.policy();
          ctx.session = &scratch_session;
          const TensorI32 scratch = net.forward(image, ctx);
          FaultSession replay_session(fault, static_cast<std::uint64_t>(seed));
          const TensorI32 replay = net.forward_replay(golden, replay_session);
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

TEST(Evaluator, ReuseGoldenMatchesScratchExactly) {
  const Network net = replay_net();
  const Dataset data = make_teacher_dataset(net, 16, 5, 0.9, 21);
  for (const InjectionMode mode :
       {InjectionMode::kOpLevel, InjectionMode::kNeuronLevel}) {
    EvalOptions options;
    options.fault.ber = 4e-6;
    options.fault.mode = mode;
    options.seed = 13;
    options.trials = 4;
    options.policy = ConvPolicy::kWinograd2;
    options.reuse_golden = true;
    const EvalResult cached = evaluate(net, data, options);
    options.reuse_golden = false;
    const EvalResult scratch = evaluate(net, data, options);
    EXPECT_DOUBLE_EQ(cached.accuracy, scratch.accuracy);
    EXPECT_DOUBLE_EQ(cached.avg_flips, scratch.avg_flips);
    EXPECT_EQ(cached.images, scratch.images);
  }
}

TEST(Evaluator, TrialsAverageAndStayDeterministic) {
  const Network net = replay_net();
  const Dataset data = make_teacher_dataset(net, 10, 5, 0.9, 22);
  EvalOptions options;
  options.fault.ber = 2e-6;
  options.seed = 5;
  options.trials = 8;
  options.threads = 1;
  const EvalResult serial = evaluate(net, data, options);
  options.threads = 4;
  const EvalResult parallel = evaluate(net, data, options);
  EXPECT_DOUBLE_EQ(serial.accuracy, parallel.accuracy);
  EXPECT_DOUBLE_EQ(serial.avg_flips, parallel.avg_flips);
}

}  // namespace
}  // namespace winofault
