// Spatial pooling layers. Max pooling preserves the input scale exactly;
// average pooling uses integer rounding (sum + n/2) / n, also preserving
// the scale (Layer::derive_quant's default).
#pragma once

#include "nn/layer.h"

namespace winofault {

enum class PoolMode { kMax, kAvg };

class PoolLayer final : public Layer {
 public:
  PoolLayer(PoolMode mode, std::int64_t kernel, std::int64_t stride,
            std::int64_t pad = 0);

  const char* kind() const override {
    return mode_ == PoolMode::kMax ? "maxpool" : "avgpool";
  }
  Shape infer_shape(std::span<const Shape> in) const override;
  TensorI32 forward(std::span<const NodeOutput* const> ins,
                    const QuantParams& out_quant) const override;

  // Window hyperparameters are not derivable from node shapes (different
  // (kernel, pad) pairs can give the same output size); the mode is
  // already covered by kind().
  void hash_params(Fnv64& h) const override;

 private:
  // One output window at (c, oy, ox): the max, or the rounded mean of the
  // in-bounds taps (padding is skipped, not zero-filled).
  std::int32_t pool_window(const TensorI32& in, const Shape& in_shape,
                           std::int64_t c, std::int64_t oy,
                           std::int64_t ox) const;

  PoolMode mode_;
  std::int64_t kernel_;
  std::int64_t stride_;
  std::int64_t pad_;
};

// Global average pooling to 1x1 (classifier heads).
class GlobalAvgPoolLayer final : public Layer {
 public:
  const char* kind() const override { return "gap"; }
  Shape infer_shape(std::span<const Shape> in) const override;
  TensorI32 forward(std::span<const NodeOutput* const> ins,
                    const QuantParams& out_quant) const override;
};

}  // namespace winofault
