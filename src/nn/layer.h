// Layer abstraction of the quantized inference engine. A network is a DAG
// of nodes; each node owns a Layer and consumes the outputs of earlier
// nodes. Activation tensors travel together with their quantization params.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "conv/engine.h"
#include "fault/models/model_spec.h"
#include "fault/op_space.h"
#include "tensor/quantize.h"
#include "tensor/shape.h"
#include "tensor/tensor.h"

namespace winofault {

class FaultSession;
struct FaultOverlay;
class Fnv64;

// A produced activation: quantized values + their scale.
struct NodeOutput {
  TensorI32 tensor;
  QuantParams quant;
};

// Per-inference execution parameters.
struct ExecContext {
  ConvPolicy policy = ConvPolicy::kDirect;
  FaultSession* session = nullptr;  // null => fault-free run
  // Permanent-fault overlay (fault/models/overlay.h): stuck/flipped weight
  // cells and accumulator-register bits applied inside protectable layers'
  // forward. Null => pristine silicon. A golden built with an overlay is a
  // *faulted-weights golden variant* (keyed separately in GoldenLru/store).
  const FaultOverlay* overlay = nullptr;
};

class Layer {
 public:
  virtual ~Layer() = default;

  virtual const char* kind() const = 0;

  virtual Shape infer_shape(std::span<const Shape> in) const = 0;

  // True for layers carrying a convolution op space (conv / linear): the
  // targets of operation-level fault injection and TMR protection.
  virtual bool protectable() const { return false; }

  // Folds the layer's learned parameters (quantized weights, bias) into
  // `h` — Network::fingerprint support for the persistent campaign store.
  // Weight content must be hashed directly: two networks can agree on
  // every calibration scale and clean prediction yet diverge under fault
  // injection. Parameterless layers contribute nothing.
  virtual void hash_params(Fnv64& h) const {}

  // Output quantization for non-calibrated layers, derived from the input
  // params (e.g. ReLU keeps scale; Add covers the sum of ranges).
  virtual QuantParams derive_quant(std::span<const QuantParams> in_quants,
                                   DType dtype) const;

  // Calibration support (protectable layers only): max |pre-activation|
  // in real units over one input sample, used to pick the output scale.
  virtual double calib_acc_absmax(
      std::span<const NodeOutput* const> ins) const;

  // Op space under the engine the policy selects (protectable layers only).
  virtual OpSpace op_space(DType dtype, ConvPolicy policy) const;

  // Number of learned quantized weight cells — the sample space of
  // weight-memory fault models (protectable layers only; 0 otherwise).
  virtual std::int64_t param_count() const { return 0; }

  // Executes the layer; `prot_index` is the protectable-layer ordinal used
  // by the fault session (-1 for non-protectable layers).
  virtual TensorI32 forward(std::span<const NodeOutput* const> ins,
                            const QuantParams& out_quant, ExecContext& ctx,
                            int prot_index) const = 0;

  // Replay execution of a protectable layer, Network::forward_replay's one
  // path for conv and linear in both injection modes. A null `golden`
  // recomputes the layer densely from `ins` (a dirty input). Otherwise it
  // must be this layer's fault-free output for these inputs (a clean
  // input), and only the outputs the sites affect are re-derived. `sites`
  // are pre-sampled op-level faults, empty under neuron-level injection
  // and @weight/@accum models.
  virtual TensorI32 forward_replay(std::span<const NodeOutput* const> ins,
                                   const QuantParams& out_quant,
                                   ConvPolicy policy,
                                   std::span<const FaultSite> sites,
                                   const TensorI32* golden) const;

  // Replay execution with pre-sampled transient weight-memory faults
  // (protectable layers only): recomputes the layer with `faults` applied
  // to a copy of the quantized weights under `kind`. Must be bit-identical
  // to the scratch path (FaultSession::apply's weight-target branch).
  virtual TensorI32 forward_weight_faulted(
      std::span<const NodeOutput* const> ins, const QuantParams& out_quant,
      FaultModelKind kind, std::span<const WeightFault> faults) const;
};

}  // namespace winofault
