#include "nn/layers/eltwise_layer.h"

#include <cmath>

#include "common/logging.h"

namespace winofault {
namespace {

std::int32_t rescale(std::int32_t v, double ratio, DType dtype) {
  return clamp_to(dtype, static_cast<std::int64_t>(
                             std::llround(static_cast<double>(v) * ratio)));
}

}  // namespace

Shape AddLayer::infer_shape(std::span<const Shape> in) const {
  WF_CHECK(in.size() == 2);
  WF_CHECK(in[0] == in[1]);
  return in[0];
}

QuantParams AddLayer::derive_quant(std::span<const QuantParams> in_quants,
                                   DType dtype) const {
  QuantParams q;
  q.dtype = dtype;
  q.scale = in_quants[0].scale + in_quants[1].scale;
  return q;
}

TensorI32 AddLayer::forward(std::span<const NodeOutput* const> ins,
                            const QuantParams& out_quant) const {
  const NodeOutput& a = *ins[0];
  const NodeOutput& b = *ins[1];
  const double ra = a.quant.scale / out_quant.scale;
  const double rb = b.quant.scale / out_quant.scale;
  TensorI32 out(a.tensor.shape());
  for (std::int64_t i = 0; i < out.numel(); ++i) {
    const std::int64_t sum =
        static_cast<std::int64_t>(std::llround(a.tensor[i] * ra)) +
        static_cast<std::int64_t>(std::llround(b.tensor[i] * rb));
    out[i] = clamp_to(out_quant.dtype, sum);
  }
  return out;
}

Shape ConcatLayer::infer_shape(std::span<const Shape> in) const {
  WF_CHECK(!in.empty());
  Shape out = in[0];
  for (std::size_t i = 1; i < in.size(); ++i) {
    WF_CHECK(in[i].h == out.h && in[i].w == out.w && in[i].n == out.n);
    out.c += in[i].c;
  }
  return out;
}

QuantParams ConcatLayer::derive_quant(std::span<const QuantParams> in_quants,
                                      DType dtype) const {
  QuantParams q;
  q.dtype = dtype;
  q.scale = 0.0;
  for (const QuantParams& in : in_quants) q.scale = std::max(q.scale, in.scale);
  return q;
}

TensorI32 ConcatLayer::forward(std::span<const NodeOutput* const> ins,
                               const QuantParams& out_quant) const {
  std::vector<Shape> shapes;
  shapes.reserve(ins.size());
  for (const NodeOutput* in : ins) shapes.push_back(in->tensor.shape());
  const Shape out_shape = infer_shape(shapes);
  TensorI32 out(out_shape);
  std::int64_t c_base = 0;
  for (const NodeOutput* in : ins) {
    const Shape s = in->tensor.shape();
    const double ratio = in->quant.scale / out_quant.scale;
    for (std::int64_t c = 0; c < s.c; ++c) {
      for (std::int64_t y = 0; y < s.h; ++y) {
        for (std::int64_t x = 0; x < s.w; ++x) {
          out.at(0, c_base + c, y, x) =
              rescale(in->tensor.at(0, c, y, x), ratio, out_quant.dtype);
        }
      }
    }
    c_base += s.c;
  }
  return out;
}

}  // namespace winofault
