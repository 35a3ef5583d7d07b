// Layer abstraction of the quantized inference engine. A network is a DAG
// of nodes; each node owns a Layer and consumes the outputs of earlier
// nodes. Activation tensors travel together with their quantization params.
// Layers compute fault-free. The Network draws every fault, and conv and
// linear nodes (ConvLayer, nn/layers/conv_layer.h) are the only ones that
// compute under faults.
#pragma once

#include <span>

#include "common/logging.h"
#include "tensor/quantize.h"
#include "tensor/shape.h"
#include "tensor/tensor.h"

namespace winofault {

class Fnv64;

// A produced activation: quantized values + their scale.
struct NodeOutput {
  TensorI32 tensor;
  QuantParams quant;
};

class Layer {
 public:
  virtual ~Layer() = default;

  virtual const char* kind() const = 0;

  virtual Shape infer_shape(std::span<const Shape> in) const = 0;

  // Folds the layer's learned parameters (quantized weights, bias) into
  // `h` — Network::fingerprint support for the persistent campaign store.
  // Weight content must be hashed directly: two networks can agree on
  // every calibration scale and clean prediction yet diverge under fault
  // injection. Parameterless layers contribute nothing.
  virtual void hash_params(Fnv64& h) const {}

  // Output quantization for non-calibrated layers, derived from the input
  // params. Default: the first input's scale (ReLU, pooling and flatten
  // keep it); Add and concat cover the combined range.
  virtual QuantParams derive_quant(std::span<const QuantParams> in_quants,
                                   DType dtype) const {
    WF_CHECK(!in_quants.empty());
    QuantParams q = in_quants[0];
    q.dtype = dtype;
    return q;
  }

  // Fault-free execution of the layer over its inputs' activations.
  virtual TensorI32 forward(std::span<const NodeOutput* const> ins,
                            const QuantParams& out_quant) const = 0;
};

}  // namespace winofault
