// Default implementations of the Layer interface hooks.
#include "nn/layer.h"

#include "common/logging.h"

namespace winofault {

QuantParams Layer::derive_quant(std::span<const QuantParams> in_quants,
                                DType dtype) const {
  // Default: preserve the first input's scale at the network dtype.
  WF_CHECK(!in_quants.empty());
  QuantParams q = in_quants[0];
  q.dtype = dtype;
  return q;
}

double Layer::calib_acc_absmax(std::span<const NodeOutput* const>) const {
  WF_CHECK(!protectable());  // protectable layers must override
  return 0.0;
}

OpSpace Layer::op_space(DType, ConvPolicy) const { return {}; }

TensorI32 Layer::forward_replay(std::span<const NodeOutput* const>,
                                const QuantParams&, ConvPolicy,
                                const FaultPlan::LayerFaults&, FaultModelKind,
                                const GoldenNode*) const {
  WF_CHECK(false && "forward_replay is only defined for protectable layers");
  return {};
}

}  // namespace winofault
