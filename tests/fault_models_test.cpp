// Fault-model registry guarantees (fault/models):
//   (a) the spec grammar accepts exactly the documented model menu and
//       rejects malformed or semantically invalid specs with an error;
//   (b) apply_fault_kind matches a scratch bit-twiddling reference,
//       including two's-complement sign extension of stuck-at results;
//   (c) every registry model is bit-identical between cached replay
//       (reuse_golden) and scratch execution — transient weight/accum
//       models re-sample per trial through the per-layer sampler both
//       paths share, permanent ones ride the overlay;
//   (d) permanent overlays are deterministic in (model, seed) and persist
//       across every image and trial of a point;
//   (e) seeded mutants of the documented specs never crash the parser and
//       every accepted one round-trips through to_string.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "conv/engine.h"
#include "core/campaign/campaign.h"
#include "core/service/protocol.h"
#include "fault/bitflip.h"
#include "fault/fault_model.h"
#include "fault/models/model_spec.h"
#include "fault/models/overlay.h"
#include "nn/models/zoo.h"
#include "test_util.h"

namespace winofault {
namespace {

struct Fixture {
  Network net;
  Dataset data;
};

Fixture make_fixture(int images = 8) {
  Network net("fault-models", DType::kInt16);
  Rng rng(151);
  int x = net.add_input(Shape{1, 3, 10, 10});
  x = net.add_conv(x, 6, 3, 1, 1, rng);
  x = net.add_conv(x, 8, 3, 1, 1, rng);
  x = net.add_global_avgpool(x);
  x = net.add_flatten(x);
  x = net.add_linear(x, 4, rng);
  net.set_output(x);
  net.calibrate(make_images(net.input_shape(), 3, 33));
  Dataset data = make_teacher_dataset(net, images, 4, 0.9, 61);
  return Fixture{std::move(net), std::move(data)};
}

// The documented model menu: the GrammarAccepts table and the seeds of the
// mutation pass.
struct AcceptCase {
  const char* spec;
  FaultModelKind kind;
  FaultTarget target;
  FaultPersistence persistence;
  double arg;
};
const AcceptCase kAcceptCases[] = {
    {"flip@op", FaultModelKind::kFlip, FaultTarget::kOp,
     FaultPersistence::kTransient, 0.0},
    {"toggle@op", FaultModelKind::kToggle, FaultTarget::kOp,
     FaultPersistence::kTransient, 0.0},
    {"flip@op#trans", FaultModelKind::kFlip, FaultTarget::kOp,
     FaultPersistence::kTransient, 0.0},
    {"stuck0@weight", FaultModelKind::kStuck0, FaultTarget::kWeight,
     FaultPersistence::kTransient, 0.0},
    {"stuck1@weight#perm", FaultModelKind::kStuck1, FaultTarget::kWeight,
     FaultPersistence::kPermanent, 0.0},
    {"stuck0@weight#permanent", FaultModelKind::kStuck0,
     FaultTarget::kWeight, FaultPersistence::kPermanent, 0.0},
    {"stuck1(0.001)@weight#perm", FaultModelKind::kStuck1,
     FaultTarget::kWeight, FaultPersistence::kPermanent, 0.001},
    {"toggle@accum", FaultModelKind::kToggle, FaultTarget::kAccum,
     FaultPersistence::kTransient, 0.0},
    {"stuck0@accum#perm", FaultModelKind::kStuck0, FaultTarget::kAccum,
     FaultPersistence::kPermanent, 0.0},
};

TEST(FaultModelSpecTest, GrammarAccepts) {
  for (const AcceptCase& c : kAcceptCases) {
    std::string error;
    const auto parsed = FaultModelSpec::parse(c.spec, &error);
    ASSERT_TRUE(parsed.has_value()) << c.spec << ": " << error;
    EXPECT_EQ(parsed->kind, c.kind) << c.spec;
    EXPECT_EQ(parsed->target, c.target) << c.spec;
    EXPECT_EQ(parsed->persistence, c.persistence) << c.spec;
    EXPECT_DOUBLE_EQ(parsed->arg, c.arg) << c.spec;
    // to_string round-trips to the identical spec.
    const auto again = FaultModelSpec::parse(parsed->to_string(), &error);
    ASSERT_TRUE(again.has_value()) << parsed->to_string() << ": " << error;
    EXPECT_EQ(*again, *parsed) << c.spec;
  }
  EXPECT_TRUE(FaultModelSpec::parse("flip@op")->is_default());
  EXPECT_FALSE(FaultModelSpec::parse("toggle@op")->is_default());
  EXPECT_TRUE(FaultModelSpec::parse("stuck0@weight#perm")->uses_overlay());
  EXPECT_TRUE(FaultModelSpec::parse("stuck0@accum#perm")->uses_overlay());
  EXPECT_FALSE(FaultModelSpec::parse("stuck0@weight")->uses_overlay());
  EXPECT_EQ(FaultModelSpec::parse("stuck0@weight#perm")->slug(),
            "stuck0_weight_perm");
}

TEST(FaultModelSpecTest, GrammarRejects) {
  const char* cases[] = {
      "",                        // empty
      "flip",                    // no target
      "flip@",                   // empty target
      "@op",                     // no kind
      "bogus@op",                // unknown kind
      "flip@datapath",           // unknown target
      "stuck0@op",               // stuck-at needs a storage cell
      "stuck1@op#perm",          // ditto (and @op cannot be permanent)
      "flip@op#perm",            // op faults are transient by definition
      "flip(3)@op",              // @op takes no arg
      "flip(x)@weight",          // non-numeric arg
      "flip(@weight",            // unterminated arg
      "stuck0@weight#sometimes", // unknown persistence
      "stuck0(0.1)@weight",      // arg only valid with #perm
      "stuck0(2.0)@weight#perm", // defect probability out of (0, 1]
      "stuck0(-1)@weight#perm",  // ditto
      "slow(5)@weight",          // storage faults are WINOFAULT_CHAOS rules
      "medium@op",               // ditto
      "slow(5)@store",           // ditto
      "flip@store",              // ditto
      "medium@store#perm",       // ditto
      "stuck0@store",            // ditto
      "flip@op trailing",        // trailing garbage
      "flip@op#trans#perm",      // double persistence
  };
  for (const char* spec : cases) {
    std::string error;
    EXPECT_FALSE(FaultModelSpec::parse(spec, &error).has_value()) << spec;
    EXPECT_FALSE(error.empty()) << spec;
  }
}

// Seeded mutation pass over the spec parser, which reads --fault-model,
// WINOFAULT_FAULT_MODEL and the wire protocol's campaign specs: byte flips,
// truncations and splices of the documented specs, from a fixed seed and a
// fixed budget. No mutant crashes the parser (the sanitizer builds run this
// suite), every rejected one carries a diagnostic, and every accepted one
// is a fixed point of printing: parse(m.to_string()) == m.
TEST(FaultModelSpecTest, SeededMutantsNeverCrashAndAcceptedOnesRoundTrip) {
  std::vector<std::string> seeds;
  for (const AcceptCase& c : kAcceptCases) seeds.emplace_back(c.spec);
  constexpr int kMutantsPerSeed = 3000;
  Rng rng(20261017);
  int accepted = 0;
  int failures = 0;
  for (const std::string& seed : seeds) {
    for (int m = 0; m < kMutantsPerSeed && failures < 10; ++m) {
      const std::string text =
          testing::mutate_bytes(seed, rng.next_below(3), seeds, rng);
      std::string error;
      const std::optional<FaultModelSpec> model =
          FaultModelSpec::parse(text, &error);
      if (!model.has_value()) {
        EXPECT_FALSE(error.empty()) << "rejected without a diagnostic: "
                                    << text;
        failures += error.empty();
        continue;
      }
      ++accepted;
      const std::string printed = model->to_string();
      const std::optional<FaultModelSpec> again =
          FaultModelSpec::parse(printed, &error);
      const bool fixed_point = again.has_value() && *again == *model;
      EXPECT_TRUE(fixed_point) << "input: " << text << "\nprinted: "
                               << printed << "\nerror: " << error;
      failures += !fixed_point;
    }
  }
  EXPECT_EQ(failures, 0);
  // The budget is only meaningful if mutants reach both outcomes.
  EXPECT_GT(accepted, 500);
  EXPECT_LT(accepted, static_cast<int>(seeds.size()) * kMutantsPerSeed / 2);
}

TEST(FaultModelSpecTest, ApplyFaultKindMatchesScratchReference) {
  constexpr int kWidth = 16;
  const std::int64_t values[] = {0, 1, -1, 12345, -12345, 32767, -32768};
  for (const std::int64_t v : values) {
    for (int bit = 0; bit < kWidth; ++bit) {
      // Scratch reference: operate on the raw 16-bit pattern, then
      // sign-extend through int16_t.
      const std::uint16_t raw = static_cast<std::uint16_t>(v);
      const auto extend = [](std::uint16_t r) {
        return static_cast<std::int64_t>(static_cast<std::int16_t>(r));
      };
      EXPECT_EQ(apply_fault_kind(FaultModelKind::kStuck0, v, bit, kWidth),
                extend(static_cast<std::uint16_t>(raw & ~(1u << bit))))
          << v << " bit " << bit;
      EXPECT_EQ(apply_fault_kind(FaultModelKind::kStuck1, v, bit, kWidth),
                extend(static_cast<std::uint16_t>(raw | (1u << bit))))
          << v << " bit " << bit;
      EXPECT_EQ(apply_fault_kind(FaultModelKind::kFlip, v, bit, kWidth),
                flip_bit(v, bit, kWidth));
      EXPECT_EQ(apply_fault_kind(FaultModelKind::kToggle, v, bit, kWidth),
                flip_bit(v, bit, kWidth));
      // Stuck-at faults are idempotent; flips are involutions.
      const std::int64_t s0 =
          apply_fault_kind(FaultModelKind::kStuck0, v, bit, kWidth);
      EXPECT_EQ(apply_fault_kind(FaultModelKind::kStuck0, s0, bit, kWidth),
                s0);
      const std::int64_t fl =
          apply_fault_kind(FaultModelKind::kFlip, v, bit, kWidth);
      EXPECT_EQ(apply_fault_kind(FaultModelKind::kFlip, fl, bit, kWidth), v);
    }
  }
  // Sign extension: sticking the sign bit of a positive value goes
  // negative, clearing it on a negative value goes positive.
  EXPECT_LT(apply_fault_kind(FaultModelKind::kStuck1, 5, 15, 16), 0);
  EXPECT_GE(apply_fault_kind(FaultModelKind::kStuck0, -5, 15, 16), 0);
}

CampaignPoint model_point(const char* spec, double ber, ConvPolicy policy,
                          bool reuse_golden) {
  CampaignPoint point;
  point.fault.ber = ber;
  point.fault.model = *FaultModelSpec::parse(spec);
  point.policy = policy;
  point.seed = 17;
  point.trials = 2;
  point.reuse_golden = reuse_golden;
  return point;
}

// (c): every registry model agrees bit-exactly between cached replay and
// scratch forwards, under both conv policies (the scratch path runs every
// node under the session's plan() or the overlay's plan faults, the replay
// path plan() + forward_replay over the golden).
TEST(FaultModelCampaignTest, ReplayMatchesScratchForEveryModel) {
  const Fixture f = make_fixture();
  const char* specs[] = {"stuck0@weight", "stuck1@weight", "toggle@weight",
                         "toggle@accum",  "stuck0@accum",
                         "stuck0@weight#perm", "stuck1@weight#perm",
                         "toggle@accum#perm", "stuck1@accum#perm"};
  for (const char* spec : specs) {
    for (const ConvPolicy policy :
         {ConvPolicy::kDirect, ConvPolicy::kWinograd2}) {
      const EvalResult replay = evaluate(
          f.net, f.data, model_point(spec, 1e-3, policy, true));
      const EvalResult scratch = evaluate(
          f.net, f.data, model_point(spec, 1e-3, policy, false));
      EXPECT_DOUBLE_EQ(replay.accuracy, scratch.accuracy)
          << spec << " " << conv_policy_name(policy);
      EXPECT_DOUBLE_EQ(replay.avg_flips, scratch.avg_flips)
          << spec << " " << conv_policy_name(policy);
    }
  }
}

// The explicit default spec is bit-identical to the implicit one — the
// registry cannot perturb seed semantics.
TEST(FaultModelCampaignTest, ExplicitFlipAtOpMatchesDefault) {
  const Fixture f = make_fixture();
  CampaignPoint with_spec = model_point("flip@op", 1e-6, ConvPolicy::kDirect,
                                        true);
  CampaignPoint implicit = with_spec;
  implicit.fault.model = FaultModelSpec{};
  const EvalResult a = evaluate(f.net, f.data, with_spec);
  const EvalResult b = evaluate(f.net, f.data, implicit);
  EXPECT_DOUBLE_EQ(a.accuracy, b.accuracy);
  EXPECT_DOUBLE_EQ(a.avg_flips, b.avg_flips);
}

// (d): overlays are a pure function of (model, rate, seed, geometry), and
// a permanent point's flips are exactly the overlay's site count in every
// trial of every image — the defect set persists, nothing re-samples.
TEST(FaultModelCampaignTest, PermanentOverlayDeterministicAndPersistent) {
  const Fixture f = make_fixture();
  FaultConfig config;
  config.ber = 5e-4;
  config.model = *FaultModelSpec::parse("stuck0@weight#perm");
  const FaultOverlay a = build_fault_overlay(f.net, config, 17);
  const FaultOverlay b = build_fault_overlay(f.net, config, 17);
  ASSERT_FALSE(a.empty());  // rate chosen to sample at least one defect
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.site_count, b.site_count);
  ASSERT_EQ(a.weights.size(), b.weights.size());
  for (std::size_t p = 0; p < a.weights.size(); ++p) {
    ASSERT_EQ(a.weights[p].size(), b.weights[p].size());
    for (std::size_t i = 0; i < a.weights[p].size(); ++i) {
      EXPECT_EQ(a.weights[p][i].index, b.weights[p][i].index);
      EXPECT_EQ(a.weights[p][i].bit, b.weights[p][i].bit);
    }
  }
  const FaultOverlay other = build_fault_overlay(f.net, config, 18);
  EXPECT_NE(a.digest, other.digest);

  // Persistence across images and trials: avg flips per inference is
  // EXACTLY the overlay site count (no per-trial sampling contributes).
  CampaignPoint point;
  point.fault = config;
  point.seed = 17;
  point.trials = 3;
  const EvalResult result = evaluate(f.net, f.data, point);
  EXPECT_DOUBLE_EQ(result.avg_flips, static_cast<double>(a.site_count));
}

// An overlay honors fault_free_layer: the spared layer samples no defects.
TEST(FaultModelCampaignTest, OverlayHonorsFaultFreeLayer) {
  const Fixture f = make_fixture();
  FaultConfig config;
  config.ber = 2e-2;  // dense enough that every layer would otherwise hit
  config.fault_free_layer = 1;
  config.model = *FaultModelSpec::parse("stuck1@weight#perm");
  const FaultOverlay overlay = build_fault_overlay(f.net, config, 21);
  ASSERT_FALSE(overlay.empty());
  EXPECT_TRUE(overlay.weights[1].empty());
  EXPECT_FALSE(overlay.weights[0].empty());
}

// Wire round-trip: a daemon must execute exactly the model the client
// sent. Non-default models travel as a "fault_model" field; default points
// omit it and decode to the BUILT-IN model (not the daemon's env default),
// so old clients against new daemons keep seed semantics.
TEST(FaultModelProtocolTest, CampaignSpecRoundTripsModels) {
  CampaignSpec spec;
  CampaignPoint modeled;
  modeled.fault.ber = 1e-6;
  modeled.fault.model = *FaultModelSpec::parse("stuck1(0.01)@weight#perm");
  spec.points.push_back(modeled);
  CampaignPoint plain;
  plain.fault.ber = 2e-6;
  plain.fault.model = FaultModelSpec{};
  spec.points.push_back(plain);

  const Json wire = encode_campaign_spec(spec);
  CampaignSpec decoded;
  std::string error;
  ASSERT_TRUE(decode_campaign_spec(wire, &decoded, &error)) << error;
  ASSERT_EQ(decoded.points.size(), 2u);
  EXPECT_EQ(decoded.points[0].fault.model, modeled.fault.model);
  EXPECT_TRUE(decoded.points[1].fault.model.is_default());
  // The default point carries no "fault_model" member on the wire.
  EXPECT_EQ(wire.dump().find("\"fault_model\""),
            wire.dump().rfind("\"fault_model\""));

  // A malformed model in a request fails decode loudly.
  const std::string bad_wire = [&] {
    std::string text = wire.dump();
    const std::size_t at = text.find("stuck1");
    return text.replace(at, 6, "bogus0");
  }();
  const std::optional<Json> bad = Json::parse(bad_wire);
  ASSERT_TRUE(bad.has_value());
  CampaignSpec rejected;
  EXPECT_FALSE(decode_campaign_spec(*bad, &rejected, &error));
  EXPECT_NE(error.find("fault_model"), std::string::npos) << error;
}

}  // namespace
}  // namespace winofault
