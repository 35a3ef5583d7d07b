// Elementwise / reshape layers: ReLU and Flatten. Both preserve the input
// quantization scale.
#pragma once

#include "nn/layer.h"

namespace winofault {

class ReluLayer final : public Layer {
 public:
  const char* kind() const override { return "relu"; }
  Shape infer_shape(std::span<const Shape> in) const override;
  QuantParams derive_quant(std::span<const QuantParams> in_quants,
                           DType dtype) const override;
  TensorI32 forward(std::span<const NodeOutput* const> ins,
                    const QuantParams& out_quant, ExecContext& ctx,
                    int prot_index) const override;
};

class FlattenLayer final : public Layer {
 public:
  const char* kind() const override { return "flatten"; }
  Shape infer_shape(std::span<const Shape> in) const override;
  QuantParams derive_quant(std::span<const QuantParams> in_quants,
                           DType dtype) const override;
  TensorI32 forward(std::span<const NodeOutput* const> ins,
                    const QuantParams& out_quant, ExecContext& ctx,
                    int prot_index) const override;
};

}  // namespace winofault
