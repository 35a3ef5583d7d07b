#include "nn/layers/activation_layer.h"

#include "common/logging.h"

namespace winofault {

Shape ReluLayer::infer_shape(std::span<const Shape> in) const {
  WF_CHECK(in.size() == 1);
  return in[0];
}

TensorI32 ReluLayer::forward(std::span<const NodeOutput* const> ins,
                             const QuantParams&) const {
  TensorI32 out = ins[0]->tensor;
  for (auto& v : out.flat()) v = v > 0 ? v : 0;
  return out;
}

Shape FlattenLayer::infer_shape(std::span<const Shape> in) const {
  WF_CHECK(in.size() == 1);
  return Shape{1, in[0].numel(), 1, 1};
}

TensorI32 FlattenLayer::forward(std::span<const NodeOutput* const> ins,
                                const QuantParams&) const {
  const TensorI32& in = ins[0]->tensor;
  TensorI32 out(Shape{1, in.numel(), 1, 1},
                std::vector<std::int32_t>(in.flat().begin(), in.flat().end()));
  return out;
}

}  // namespace winofault
