#include "nn/layers/linear_layer.h"

#include "common/logging.h"

namespace winofault {
namespace {

ConvDesc linear_desc(std::int64_t in_features, std::int64_t out_features) {
  ConvDesc desc;
  desc.in_c = in_features;
  desc.in_h = 1;
  desc.in_w = 1;
  desc.out_c = out_features;
  desc.kh = 1;
  desc.kw = 1;
  desc.stride = 1;
  desc.pad = 0;
  desc.has_bias = true;
  return desc;
}

}  // namespace

LinearLayer::LinearLayer(std::int64_t in_features, std::int64_t out_features,
                         const TensorF& weights, std::vector<float> bias,
                         DType dtype)
    : in_features_(in_features), out_features_(out_features) {
  WF_CHECK(weights.numel() == in_features * out_features);
  // Reshape [out, in] -> [out, in, 1, 1].
  TensorF w4(Shape{out_features, in_features, 1, 1},
             std::vector<float>(weights.flat().begin(), weights.flat().end()));
  impl_ = std::make_unique<ConvLayer>(linear_desc(in_features, out_features),
                                      w4, std::move(bias), dtype);
}

Shape LinearLayer::infer_shape(std::span<const Shape> in) const {
  WF_CHECK(in.size() == 1);
  WF_CHECK(in[0].c == in_features_ && in[0].h == 1 && in[0].w == 1);
  return Shape{1, out_features_, 1, 1};
}

double LinearLayer::calib_acc_absmax(
    std::span<const NodeOutput* const> ins) const {
  return impl_->calib_acc_absmax(ins);
}

OpSpace LinearLayer::op_space(DType dtype, ConvPolicy policy) const {
  return impl_->op_space(dtype, policy);
}

TensorI32 LinearLayer::forward(std::span<const NodeOutput* const> ins,
                               const QuantParams& out_quant, ExecContext& ctx,
                               int prot_index) const {
  return impl_->forward(ins, out_quant, ctx, prot_index);
}

}  // namespace winofault
