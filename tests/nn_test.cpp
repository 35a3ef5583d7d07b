// Tests for the quantized inference engine: individual layers, builder
// shape inference, calibration, and the network-level equivalence of the
// direct and Winograd policies on fault-free runs.
#include <gtest/gtest.h>

#include "nn/dataset.h"
#include "nn/layers/eltwise_layer.h"
#include "nn/layers/pool_layer.h"
#include "nn/network.h"
#include "test_util.h"

namespace winofault {
namespace {

Network tiny_net(DType dtype, std::uint64_t seed = 7) {
  Network net("tiny", dtype);
  Rng rng(seed);
  int x = net.add_input(Shape{1, 3, 12, 12});
  x = net.add_conv(x, 8, 3, 1, 1, rng);
  x = net.add_maxpool(x, 2, 2);
  x = net.add_conv(x, 8, 3, 1, 1, rng);
  x = net.add_global_avgpool(x);
  x = net.add_flatten(x);
  x = net.add_linear(x, 5, rng);
  net.set_output(x);
  net.calibrate(make_images(net.input_shape(), 3, seed ^ 1));
  return net;
}

TEST(Network, BuildsAndCalibrates) {
  const Network net = tiny_net(DType::kInt16);
  EXPECT_TRUE(net.calibrated());
  EXPECT_EQ(net.num_protectable(), 3);  // 2 convs + linear
  EXPECT_EQ(net.input_shape(), (Shape{1, 3, 12, 12}));
}

TEST(Network, PredictIsDeterministic) {
  const Network net = tiny_net(DType::kInt16);
  const auto images = make_images(net.input_shape(), 4, 99);
  ExecContext ctx;
  for (const TensorF& image : images) {
    const int a = net.predict(image, ctx);
    const int b = net.predict(image, ctx);
    EXPECT_EQ(a, b);
    EXPECT_GE(a, 0);
    EXPECT_LT(a, 5);
  }
}

TEST(Network, WinogradPoliciesMatchDirectFaultFree) {
  for (const DType dtype : {DType::kInt8, DType::kInt16}) {
    const Network net = tiny_net(dtype);
    const auto images = make_images(net.input_shape(), 6, 123);
    for (const TensorF& image : images) {
      ExecContext direct_ctx;
      direct_ctx.policy = ConvPolicy::kDirect;
      const TensorI32 ref = net.forward(image, direct_ctx);
      for (const ConvPolicy policy :
           {ConvPolicy::kWinograd2, ConvPolicy::kWinograd4}) {
        ExecContext ctx;
        ctx.policy = policy;
        const TensorI32 out = net.forward(image, ctx);
        testing::expect_tensors_equal(ref, out, "policy equivalence");
      }
    }
  }
}

TEST(Network, OpSpacesShrinkUnderWinograd) {
  const Network net = tiny_net(DType::kInt16);
  const OpSpace direct = net.total_op_space(ConvPolicy::kDirect);
  const OpSpace wg2 = net.total_op_space(ConvPolicy::kWinograd2);
  const OpSpace wg4 = net.total_op_space(ConvPolicy::kWinograd4);
  EXPECT_GT(direct.n_mul, wg2.n_mul);
  EXPECT_GT(wg2.n_mul, wg4.n_mul);
  EXPECT_GT(direct.n_mul, 0);
}

TEST(Network, ProtectableOpSpaceMatchesLayer) {
  const Network net = tiny_net(DType::kInt16);
  OpSpace sum;
  for (int p = 0; p < net.num_protectable(); ++p)
    sum += net.protectable_op_space(p, ConvPolicy::kDirect);
  const OpSpace total = net.total_op_space(ConvPolicy::kDirect);
  EXPECT_EQ(sum.n_mul, total.n_mul);
  EXPECT_EQ(sum.n_add, total.n_add);
}

TEST(PoolLayers, MaxAndAvgSemantics) {
  NodeOutput in;
  in.tensor = TensorI32(Shape{1, 1, 2, 2});
  in.tensor.at(0, 0, 0, 0) = 1;
  in.tensor.at(0, 0, 0, 1) = 5;
  in.tensor.at(0, 0, 1, 0) = -3;
  in.tensor.at(0, 0, 1, 1) = 2;
  in.quant = QuantParams{0.5, DType::kInt16};
  const NodeOutput* ins[] = {&in};

  PoolLayer maxpool(PoolMode::kMax, 2, 2);
  const TensorI32 mx = maxpool.forward({ins, 1}, in.quant);
  EXPECT_EQ(mx.at(0, 0, 0, 0), 5);

  PoolLayer avgpool(PoolMode::kAvg, 2, 2);
  const TensorI32 av = avgpool.forward({ins, 1}, in.quant);
  EXPECT_EQ(av.at(0, 0, 0, 0), 1);  // (1+5-3+2+2)/4 = 1.25 -> rounds to 1

  GlobalAvgPoolLayer gap;
  const TensorI32 gp = gap.forward({ins, 1}, in.quant);
  EXPECT_EQ(gp.at(0, 0, 0, 0), 1);
}

TEST(AddLayer, RescalesAndSaturates) {
  NodeOutput a, b;
  a.tensor = TensorI32(Shape{1, 1, 1, 2});
  b.tensor = TensorI32(Shape{1, 1, 1, 2});
  a.quant = QuantParams{1.0, DType::kInt8};
  b.quant = QuantParams{2.0, DType::kInt8};
  a.tensor[0] = 10;   // real 10
  b.tensor[0] = 20;   // real 40
  a.tensor[1] = 127;  // real 127
  b.tensor[1] = 127;  // real 254
  AddLayer add;
  const QuantParams in_q[] = {a.quant, b.quant};
  const QuantParams out_q = add.derive_quant({in_q, 2}, DType::kInt8);
  EXPECT_DOUBLE_EQ(out_q.scale, 3.0);
  const NodeOutput* ins[] = {&a, &b};
  const TensorI32 out = add.forward({ins, 2}, out_q);
  // real 50 at scale 3 -> 16.67 -> 17 (rounding of each term: 3+13=16 or so)
  EXPECT_NEAR(out[0] * 3.0, 50.0, 3.0);
  // real 381 at scale 3 = 127: at the positive rail.
  EXPECT_EQ(out[1], 127);
}

TEST(ConcatLayer, LaysOutChannelsAndRescales) {
  NodeOutput a, b;
  a.tensor = TensorI32(Shape{1, 1, 2, 2});
  b.tensor = TensorI32(Shape{1, 2, 2, 2});
  a.quant = QuantParams{1.0, DType::kInt16};
  b.quant = QuantParams{0.5, DType::kInt16};
  a.tensor.fill(10);
  b.tensor.fill(8);
  ConcatLayer concat;
  const QuantParams in_q[] = {a.quant, b.quant};
  const QuantParams out_q = concat.derive_quant({in_q, 2}, DType::kInt16);
  EXPECT_DOUBLE_EQ(out_q.scale, 1.0);
  const NodeOutput* ins[] = {&a, &b};
  const TensorI32 out = concat.forward({ins, 2}, out_q);
  EXPECT_EQ(out.shape(), (Shape{1, 3, 2, 2}));
  EXPECT_EQ(out.at(0, 0, 0, 0), 10);  // scale 1 -> unchanged
  EXPECT_EQ(out.at(0, 1, 0, 0), 4);   // real 4 at scale 1
  EXPECT_EQ(out.at(0, 2, 1, 1), 4);
}

TEST(Dataset, TeacherLabelsHitTargetCleanAccuracy) {
  const Network net = tiny_net(DType::kInt16);
  const Dataset data = make_teacher_dataset(net, 300, 5, 0.8, 42);
  ExecContext ctx;
  int correct = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    correct += net.predict(data.images[i], ctx) == data.labels[i];
  }
  const double accuracy = static_cast<double>(correct) / data.size();
  EXPECT_NEAR(accuracy, 0.8, 0.07);
}

TEST(Dataset, ImagesAreDeterministicPerSeed) {
  const auto a = make_images(Shape{1, 3, 8, 8}, 2, 5);
  const auto b = make_images(Shape{1, 3, 8, 8}, 2, 5);
  const auto c = make_images(Shape{1, 3, 8, 8}, 2, 6);
  EXPECT_EQ(a[0], b[0]);
  EXPECT_EQ(a[1], b[1]);
  EXPECT_NE(a[0], c[0]);
}

}  // namespace
}  // namespace winofault
