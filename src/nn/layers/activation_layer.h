// Elementwise / reshape layers: ReLU and Flatten. Both preserve the input
// quantization scale (Layer::derive_quant's default).
#pragma once

#include "nn/layer.h"

namespace winofault {

class ReluLayer final : public Layer {
 public:
  const char* kind() const override { return "relu"; }
  Shape infer_shape(std::span<const Shape> in) const override;
  TensorI32 forward(std::span<const NodeOutput* const> ins,
                    const QuantParams& out_quant) const override;
};

class FlattenLayer final : public Layer {
 public:
  const char* kind() const override { return "flatten"; }
  Shape infer_shape(std::span<const Shape> in) const override;
  TensorI32 forward(std::span<const NodeOutput* const> ins,
                    const QuantParams& out_quant) const override;
};

}  // namespace winofault
