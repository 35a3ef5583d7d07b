#include "nn/layers/pool_layer.h"

#include <algorithm>
#include <limits>

#include "common/hash.h"
#include "common/logging.h"

namespace winofault {

PoolLayer::PoolLayer(PoolMode mode, std::int64_t kernel, std::int64_t stride,
                     std::int64_t pad)
    : mode_(mode), kernel_(kernel), stride_(stride), pad_(pad) {}

Shape PoolLayer::infer_shape(std::span<const Shape> in) const {
  WF_CHECK(in.size() == 1);
  return Shape{1, in[0].c, conv_out_dim(in[0].h, kernel_, stride_, pad_),
               conv_out_dim(in[0].w, kernel_, stride_, pad_)};
}

std::int32_t PoolLayer::pool_window(const TensorI32& in, const Shape& in_shape,
                                    std::int64_t c, std::int64_t oy,
                                    std::int64_t ox) const {
  std::int64_t best = std::numeric_limits<std::int64_t>::min();
  std::int64_t sum = 0;
  std::int64_t count = 0;
  for (std::int64_t ky = 0; ky < kernel_; ++ky) {
    const std::int64_t iy = oy * stride_ + ky - pad_;
    if (iy < 0 || iy >= in_shape.h) continue;
    for (std::int64_t kx = 0; kx < kernel_; ++kx) {
      const std::int64_t ix = ox * stride_ + kx - pad_;
      if (ix < 0 || ix >= in_shape.w) continue;
      const std::int64_t v = in.at(0, c, iy, ix);
      best = std::max(best, v);
      sum += v;
      ++count;
    }
  }
  WF_CHECK(count > 0);
  std::int64_t result;
  if (mode_ == PoolMode::kMax) {
    result = best;
  } else {
    // Round-to-nearest integer mean (ties away from zero).
    result = sum >= 0 ? (sum + count / 2) / count
                      : -((-sum + count / 2) / count);
  }
  return static_cast<std::int32_t>(result);
}

TensorI32 PoolLayer::forward(std::span<const NodeOutput* const> ins,
                             const QuantParams&) const {
  const TensorI32& in = ins[0]->tensor;
  const Shape in_shape = in.shape();
  Shape out_shape = infer_shape({&in_shape, 1});
  TensorI32 out(out_shape);
  for (std::int64_t c = 0; c < out_shape.c; ++c) {
    for (std::int64_t oy = 0; oy < out_shape.h; ++oy) {
      for (std::int64_t ox = 0; ox < out_shape.w; ++ox) {
        out.at(0, c, oy, ox) = pool_window(in, in_shape, c, oy, ox);
      }
    }
  }
  return out;
}

Shape GlobalAvgPoolLayer::infer_shape(std::span<const Shape> in) const {
  WF_CHECK(in.size() == 1);
  return Shape{1, in[0].c, 1, 1};
}

TensorI32 GlobalAvgPoolLayer::forward(std::span<const NodeOutput* const> ins,
                                      const QuantParams&) const {
  const TensorI32& in = ins[0]->tensor;
  const Shape s = in.shape();
  TensorI32 out(Shape{1, s.c, 1, 1});
  const std::int64_t count = s.h * s.w;
  for (std::int64_t c = 0; c < s.c; ++c) {
    std::int64_t sum = 0;
    for (std::int64_t y = 0; y < s.h; ++y)
      for (std::int64_t x = 0; x < s.w; ++x) sum += in.at(0, c, y, x);
    out.at(0, c, 0, 0) = static_cast<std::int32_t>(
        sum >= 0 ? (sum + count / 2) / count : -((-sum + count / 2) / count));
  }
  return out;
}

void PoolLayer::hash_params(Fnv64& h) const {
  h.i64(kernel_).i64(stride_).i64(pad_);
}

}  // namespace winofault
