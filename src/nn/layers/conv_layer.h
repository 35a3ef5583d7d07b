// Quantized 3x3/1x1/5x5 convolution layer: the protectable unit of the
// fault study. Holds float master weights quantized at construction; the
// engine (direct vs Winograd) is chosen per inference by the ConvPolicy.
// Winograd filter banks (the offline transform of the static weights) are
// computed once on first use and cached across forwards.
#pragma once

#include <mutex>
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
                           const TensorI32* golden) const override;

  const ConvDesc& desc() const { return desc_; }

  void hash_params(Fnv64& h) const override;

 private:
  // Assembles the engine-facing view for a given input activation.
  ConvData make_data(const NodeOutput& in, const QuantParams& out_quant,
                     std::vector<std::int64_t>& bias_acc) const;

  // The direct GEMM over a copy of weights_q_ with `faults` applied under
  // `kind` (the weights themselves when `faults` is empty). It serves
  // transient weight faults and permanent overlay defects alike: fault-free
  // outputs are bit-identical across engines for ANY weights (the core
  // invariant), and the cached Winograd banks transform the CLEAN weights.
  TensorI32 corrupted_weights_gemm(ConvData data, FaultModelKind kind,
                                   std::span<const CellFault> faults) const;

  // Cached Winograd filter bank for plan m (2 or 4); computed on first use.
  const std::vector<std::int64_t>* wg_bank(int m) const;
  // Points `data` at the cached bank when `engine` is a Winograd engine.
  void attach_wg_bank(ConvData& data, const ConvEngine& engine) const;

  ConvDesc desc_;
  TensorI32 weights_q_;
  QuantParams w_quant_;
  std::vector<float> bias_real_;
  DType dtype_;

  mutable std::once_flag wg_once_[2];
  mutable std::vector<std::int64_t> wg_bank_[2];  // [0]: m=2, [1]: m=4
};

}  // namespace winofault
