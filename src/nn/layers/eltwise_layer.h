// Multi-input layers: residual Add and channel Concat. Inputs may carry
// different quantization scales; outputs are requantized to a scale that
// covers the combined range.
#pragma once

#include "nn/layer.h"

namespace winofault {

class AddLayer final : public Layer {
 public:
  const char* kind() const override { return "add"; }
  Shape infer_shape(std::span<const Shape> in) const override;
  // Output scale sa + sb exactly covers the worst-case sum of ranges.
  QuantParams derive_quant(std::span<const QuantParams> in_quants,
                           DType dtype) const override;
  TensorI32 forward(std::span<const NodeOutput* const> ins,
                    const QuantParams& out_quant) const override;
};

class ConcatLayer final : public Layer {
 public:
  const char* kind() const override { return "concat"; }
  Shape infer_shape(std::span<const Shape> in) const override;
  // Output scale = max input scale (standard requantized concat).
  QuantParams derive_quant(std::span<const QuantParams> in_quants,
                           DType dtype) const override;
  TensorI32 forward(std::span<const NodeOutput* const> ins,
                    const QuantParams& out_quant) const override;
};

}  // namespace winofault
