// Quantized 3x3/1x1/5x5 convolution layer: the protectable unit of the
// fault study. A fully-connected head is a 1x1 ConvLayer over a [1, F, 1,
// 1] activation that reports kind "linear", so it shares the conv engines'
// op space, fault replay and TMR machinery (the paper's Fig 4 setup
// protects it like a convolution). Holds float master weights quantized at
// construction; the engine (direct vs Winograd) is chosen per inference by
// the ConvPolicy.
// Two derived copies of the static weights are built once on first use and
// cached across forwards: the Winograd filter banks (the offline
// transform, held as int32) and the int16 weights transposed to
// [window][out_c] that delta replay reads.
#pragma once

#include <mutex>
#include <span>
#include <vector>

#include "conv/conv_desc.h"
#include "conv/engine.h"
#include "fault/models/model_spec.h"
#include "fault/op_space.h"
#include "nn/fault_session.h"
#include "nn/layer.h"

namespace winofault {

struct GoldenNode;

class ConvLayer final : public Layer {
 public:
  // `weights` is [out_c, in_c, kh, kw] float; `bias` real-valued per out_c.
  // `kind` is "conv", or "linear" for a fully-connected head.
  ConvLayer(ConvDesc desc, const TensorF& weights, std::vector<float> bias,
            DType dtype, const char* kind = "conv");

  const char* kind() const override { return kind_; }
  Shape infer_shape(std::span<const Shape> in) const override;
  // Max |pre-activation| in real units over one input sample; calibration
  // picks the output scale from it.
  double calib_acc_absmax(std::span<const NodeOutput* const> ins) const;
  // Op space under the engine the policy selects.
  OpSpace op_space(DType dtype, ConvPolicy policy) const;
  // Number of learned quantized weight cells: the sample space of
  // weight-memory fault models.
  std::int64_t param_count() const { return weights_q_.numel(); }
  // The fault-free output: the direct GEMM over the clean weights.
  TensorI32 forward(std::span<const NodeOutput* const> ins,
                    const QuantParams& out_quant) const override;

  // Faulted execution, the one path of a protectable node in every
  // Network pass: a scratch forward, a golden build and replay. `faults`
  // are the node's faults from the pass's plan and `kind` their fault kind
  // (a permanent overlay's defects arrive as weight and accumulator
  // faults). With a null `golden` (scratch forward, golden build) the base
  // output is the dense GEMM over `ins`, on a corrupted weight copy when
  // weights are faulted. With the node's `golden`, a clean input and clean
  // weights keep the golden output, and otherwise the base is delta
  // replay: requantize(acc_g + W·Δx + ΔW·x') at every output whose
  // accumulator moved, on top of the golden output. Op sites are then
  // re-derived in the policy engine's domain, and neuron and accumulator
  // faults patch the stored output.
  TensorI32 forward_replay(std::span<const NodeOutput* const> ins,
                           const QuantParams& out_quant, ConvPolicy policy,
                           const FaultPlan::LayerFaults& faults,
                           FaultModelKind kind,
                           const GoldenNode* golden) const;

  const ConvDesc& desc() const { return desc_; }

  // The engine-facing view of this layer over input activation `in`: its
  // weights, the accumulator scale and the bias in accumulator units
  // (written to `bias_acc`, which must outlive the view).
  ConvData make_data(const NodeOutput& in, const QuantParams& out_quant,
                     std::vector<std::int64_t>& bias_acc) const;

  void hash_params(Fnv64& h) const override;

 private:
  // The direct GEMM over a copy of weights_q_ with `faults` applied under
  // `kind` (the weights themselves when `faults` is empty): golden builds,
  // scratch forwards and permanent weight defects. Fault-free outputs are
  // bit-identical across engines for ANY weights (the core invariant), and
  // the cached Winograd banks transform the CLEAN weights.
  TensorI32 corrupted_weights_gemm(ConvData data, FaultModelKind kind,
                                   std::span<const CellFault> faults) const;

  // Replay's base output when the input (x' in `data`) or the weights
  // changed: accumulation is linear, so every output whose accumulator
  // moved becomes requantize(acc_g + W·Δx + ΔW·x'), and the others keep
  // `golden.output`. acc_g are the golden's accumulators, Δx = x' minus the
  // golden input, and ΔW the weight change that `weight_faults` make under
  // `kind`, one MAC per output position per faulted cell.
  TensorI32 delta_replay(const ConvData& data, const GoldenNode& golden,
                         FaultModelKind kind,
                         std::span<const CellFault> weight_faults) const;

  // Op sites in the policy engine's domain, then neuron and accumulator
  // faults, on top of the base output `out`.
  void apply_layer_faults(ConvData& data, ConvPolicy policy,
                          const FaultPlan::LayerFaults& faults,
                          FaultModelKind kind, TensorI32& out) const;

  // Cached Winograd filter bank for plan m (2 or 4), narrowed to int32;
  // computed on first use.
  const std::vector<std::int32_t>* wg_bank(int m) const;
  // Points `data` at the cached bank when `engine` is a Winograd engine.
  void attach_wg_bank(ConvData& data, const ConvEngine& engine) const;
  // The clean weights as delta replay reads them (transpose_weights_i16);
  // computed on first use.
  std::span<const std::int16_t> transposed_weights() const;

  ConvDesc desc_;
  const char* kind_;
  TensorI32 weights_q_;
  QuantParams w_quant_;
  std::vector<float> bias_real_;
  DType dtype_;

  mutable std::once_flag wg_once_[2];
  mutable std::vector<std::int32_t> wg_bank_[2];  // [0]: m=2, [1]: m=4
  mutable std::once_flag wt_once_;
  mutable std::vector<std::int16_t> wt_;  // [window][out_c]
};

}  // namespace winofault
