// Fully-connected layer, implemented as a 1x1 convolution over a [1, F, 1,
// 1] activation so it shares the conv engines' op space, fault replay, and
// TMR machinery (fully-connected layers are protected in the paper's Fig 4
// setup just like convolutions). Expects a Flatten layer upstream.
#pragma once

#include <memory>

#include "nn/layers/conv_layer.h"

namespace winofault {

class LinearLayer final : public Layer {
 public:
  // `weights` is [out_features, in_features] float (row-major).
  LinearLayer(std::int64_t in_features, std::int64_t out_features,
              const TensorF& weights, std::vector<float> bias, DType dtype);

  const char* kind() const override { return "linear"; }
  bool protectable() const override { return true; }
  Shape infer_shape(std::span<const Shape> in) const override;
  double calib_acc_absmax(
      std::span<const NodeOutput* const> ins) const override;
  OpSpace op_space(DType dtype, ConvPolicy policy) const override;
  std::int64_t param_count() const override { return impl_->param_count(); }
  TensorI32 forward(std::span<const NodeOutput* const> ins,
                    const QuantParams& out_quant, ExecContext& ctx,
                    int prot_index) const override;
  TensorI32 forward_replay(std::span<const NodeOutput* const> ins,
                           const QuantParams& out_quant, ConvPolicy policy,
                           const FaultPlan::LayerFaults& faults,
                           FaultModelKind kind,
                           const GoldenNode* golden) const override {
    return impl_->forward_replay(ins, out_quant, policy, faults, kind, golden);
  }

  void hash_params(Fnv64& h) const override { impl_->hash_params(h); }

 private:
  std::int64_t in_features_;
  std::int64_t out_features_;
  std::unique_ptr<ConvLayer> impl_;
};

}  // namespace winofault
