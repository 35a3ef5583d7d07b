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
#include "nn/fault_session.h"
#include "tensor/quantize.h"
#include "tensor/shape.h"
#include "tensor/tensor.h"

namespace winofault {

struct FaultOverlay;
struct GoldenNode;
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
  // by the fault session (-1 for non-protectable layers). A protectable
  // layer draws its own faults through ctx.session->sample_layer and
  // applies them as forward_replay does, so a scratch forward is the
  // replay oracle.
  virtual TensorI32 forward(std::span<const NodeOutput* const> ins,
                            const QuantParams& out_quant, ExecContext& ctx,
                            int prot_index) const = 0;

  // Faulted execution of a protectable layer under every transient model:
  // a scratch forward's and Network::forward_replay's one path for conv and
  // linear. `faults` are the layer's sampled faults and `kind` the model's
  // fault kind. With a null `golden` (scratch forward, the replay oracle)
  // the base output is the dense GEMM over `ins`, on a corrupted weight
  // copy when weights are faulted. With the node's `golden`, a clean input
  // and clean weights keep the golden output, and otherwise the base is
  // delta replay: requantize(acc_g + W·Δx + ΔW·x') at every output whose
  // accumulator moved, on top of the golden output. Op sites are then
  // re-derived in the policy engine's domain, and neuron and accumulator
  // faults patch the stored output.
  virtual TensorI32 forward_replay(std::span<const NodeOutput* const> ins,
                                   const QuantParams& out_quant,
                                   ConvPolicy policy,
                                   const FaultPlan::LayerFaults& faults,
                                   FaultModelKind kind,
                                   const GoldenNode* golden) const;
};

}  // namespace winofault
