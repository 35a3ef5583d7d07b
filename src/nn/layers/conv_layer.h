// Quantized 3x3/1x1/5x5 convolution layer: the protectable unit of the
// fault study. Holds float master weights quantized at construction; the
// engine (direct vs Winograd) is chosen per inference by the ConvPolicy.
// Two derived copies of the static weights are built once on first use and
// cached across forwards: the Winograd filter banks (the offline
// transform, held as int32) and the int16 weights transposed to
// [window][out_c] that delta replay reads.
#pragma once

#include <mutex>
#include <span>
#include <vector>

#include "conv/conv_desc.h"
#include "nn/layer.h"

namespace winofault {

class ConvLayer final : public Layer {
 public:
  // `weights` is [out_c, in_c, kh, kw] float; `bias` real-valued per out_c.
  ConvLayer(ConvDesc desc, const TensorF& weights, std::vector<float> bias,
            DType dtype);

  const char* kind() const override { return "conv"; }
  bool protectable() const override { return true; }
  Shape infer_shape(std::span<const Shape> in) const override;
  double calib_acc_absmax(
      std::span<const NodeOutput* const> ins) const override;
  OpSpace op_space(DType dtype, ConvPolicy policy) const override;
  std::int64_t param_count() const override { return weights_q_.numel(); }
  TensorI32 forward(std::span<const NodeOutput* const> ins,
                    const QuantParams& out_quant, ExecContext& ctx,
                    int prot_index) const override;

  TensorI32 forward_replay(std::span<const NodeOutput* const> ins,
                           const QuantParams& out_quant, ConvPolicy policy,
                           const FaultPlan::LayerFaults& faults,
                           FaultModelKind kind,
                           const GoldenNode* golden) const override;

  const ConvDesc& desc() const { return desc_; }

  void hash_params(Fnv64& h) const override;

 private:
  // Assembles the engine-facing view for a given input activation.
  ConvData make_data(const NodeOutput& in, const QuantParams& out_quant,
                     std::vector<std::int64_t>& bias_acc) const;

  // The direct GEMM over a copy of weights_q_ with `faults` applied under
  // `kind` (the weights themselves when `faults` is empty): golden builds,
  // scratch forwards and permanent overlay defects. Fault-free outputs are
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
