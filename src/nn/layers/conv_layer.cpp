#include "nn/layers/conv_layer.h"

#include <cmath>

#include "accel/systolic.h"
#include "common/hash.h"
#include "common/logging.h"
#include "conv/direct_conv.h"
#include "conv/winograd_conv.h"
#include "fault/models/overlay.h"
#include "nn/fault_session.h"

namespace winofault {
namespace {

// Permanent accumulator-register defects: every output element takes the
// stuck/toggled bits of the PE register it accumulated in (accel/systolic
// output-stationary mapping).
void apply_accum_overlay(const FaultOverlay& overlay, int width,
                         TensorI32& out) {
  const SystolicConfig config{};
  WF_CHECK(static_cast<int>(overlay.accum_bits.size()) ==
           accumulator_registers(config));
  for (std::int64_t j = 0; j < out.numel(); ++j) {
    const std::vector<int>& bits =
        overlay.accum_bits[static_cast<std::size_t>(
            accum_register_for_output(config, j))];
    for (const int bit : bits) {
      out[j] = static_cast<std::int32_t>(
          apply_fault_kind(overlay.kind, out[j], bit, width));
    }
  }
}

}  // namespace

ConvLayer::ConvLayer(ConvDesc desc, const TensorF& weights,
                     std::vector<float> bias, DType dtype)
    : desc_(desc), bias_real_(std::move(bias)), dtype_(dtype) {
  WF_CHECK(weights.shape() == desc_.weight_shape());
  WF_CHECK(!desc_.has_bias ||
           static_cast<std::int64_t>(bias_real_.size()) == desc_.out_c);
  w_quant_ = choose_quant_params(weights, dtype);
  weights_q_ = quantize(weights, w_quant_);
}

Shape ConvLayer::infer_shape(std::span<const Shape> in) const {
  WF_CHECK(in.size() == 1);
  WF_CHECK(in[0] == desc_.in_shape());
  return desc_.out_shape();
}

const std::vector<std::int64_t>* ConvLayer::wg_bank(int m) const {
  if (!(desc_.kh == 3 && desc_.kw == 3 && desc_.stride == 1)) return nullptr;
  const int slot = m == 2 ? 0 : 1;
  std::call_once(wg_once_[slot], [&] {
    ConvData data;
    data.weights = &weights_q_;
    wg_bank_[slot] =
        static_cast<const WinogradConvEngine&>(winograd_engine(m))
            .transform_filters(desc_, data);
  });
  return &wg_bank_[slot];
}

ConvData ConvLayer::make_data(const NodeOutput& in,
                              const QuantParams& out_quant,
                              std::vector<std::int64_t>& bias_acc) const {
  ConvData data;
  data.input = &in.tensor;
  data.weights = &weights_q_;
  data.dtype = dtype_;
  data.acc_scale = in.quant.scale * w_quant_.scale;
  data.out_quant = out_quant;
  if (desc_.has_bias) {
    bias_acc.resize(bias_real_.size());
    for (std::size_t i = 0; i < bias_real_.size(); ++i) {
      bias_acc[i] = static_cast<std::int64_t>(
          std::llround(bias_real_[i] / data.acc_scale));
    }
    data.bias = &bias_acc;
  }
  return data;
}

double ConvLayer::calib_acc_absmax(
    std::span<const NodeOutput* const> ins) const {
  WF_CHECK(ins.size() == 1);
  std::vector<std::int64_t> bias_acc;
  // Scale of out_quant is irrelevant here; we inspect raw accumulators.
  const ConvData data = make_data(*ins[0], QuantParams{}, bias_acc);
  return static_cast<double>(direct_acc_absmax(desc_, data)) * data.acc_scale;
}

OpSpace ConvLayer::op_space(DType dtype, ConvPolicy policy) const {
  return select_engine(policy, desc_).op_space(desc_, dtype);
}

TensorI32 ConvLayer::forward(std::span<const NodeOutput* const> ins,
                             const QuantParams& out_quant, ExecContext& ctx,
                             int prot_index) const {
  WF_CHECK(ins.size() == 1);
  std::vector<std::int64_t> bias_acc;
  ConvData data = make_data(*ins[0], out_quant, bias_acc);
  const ConvEngine& engine = select_engine(ctx.policy, desc_);
  attach_wg_bank(data, engine);
  const std::vector<WeightFault>* defects = nullptr;
  if (ctx.overlay != nullptr && prot_index >= 0 &&
      static_cast<std::size_t>(prot_index) < ctx.overlay->weights.size() &&
      !ctx.overlay->weights[static_cast<std::size_t>(prot_index)].empty()) {
    defects = &ctx.overlay->weights[static_cast<std::size_t>(prot_index)];
  }
  TensorI32 out;
  TensorI32 corrupted;
  if (defects != nullptr) {
    // Permanent weight defects: dense direct GEMM on a corrupted copy.
    // Policy-independent by the core invariant; the cached Winograd banks
    // transform the CLEAN weights, so they must not be reused here.
    corrupted = corrupt_weights(ctx.overlay->kind, *defects);
    ConvData wdata = data;
    wdata.weights = &corrupted;
    wdata.wg_bank_f2 = nullptr;
    wdata.wg_bank_f4 = nullptr;
    out = direct_forward_gemm(desc_, wdata);
  } else {
    // The policy engine defines the op space and the fault semantics, but
    // its fault-free output is bit-identical to the direct GEMM's (the
    // project's core invariant), so the base forward always takes the
    // fastest path; session->apply re-derives any faulted outputs in the
    // policy engine's own domain on top.
    out = direct_forward_gemm(desc_, data);
  }
  if (ctx.overlay != nullptr && prot_index >= 0 &&
      !ctx.overlay->accum_bits.empty()) {
    apply_accum_overlay(*ctx.overlay, bit_width(dtype_), out);
  }
  if (ctx.session != nullptr) {
    ctx.session->apply(prot_index, engine, desc_, data, out);
  }
  return out;
}

TensorI32 ConvLayer::corrupt_weights(
    FaultModelKind kind, std::span<const WeightFault> faults) const {
  TensorI32 corrupted = weights_q_;
  const int width = bit_width(dtype_);
  for (const WeightFault& f : faults) {
    corrupted[f.index] = static_cast<std::int32_t>(
        apply_fault_kind(kind, corrupted[f.index], f.bit, width));
  }
  return corrupted;
}

TensorI32 ConvLayer::forward_weight_faulted(
    std::span<const NodeOutput* const> ins, const QuantParams& out_quant,
    FaultModelKind kind, std::span<const WeightFault> faults) const {
  WF_CHECK(ins.size() == 1);
  std::vector<std::int64_t> bias_acc;
  ConvData data = make_data(*ins[0], out_quant, bias_acc);
  TensorI32 corrupted = corrupt_weights(kind, faults);
  data.weights = &corrupted;
  return direct_forward_gemm(desc_, data);
}

void ConvLayer::attach_wg_bank(ConvData& data,
                               const ConvEngine& engine) const {
  if (&engine == &winograd_engine(2)) {
    data.wg_bank_f2 = wg_bank(2);
  } else if (&engine == &winograd_engine(4)) {
    data.wg_bank_f4 = wg_bank(4);
  }
}

TensorI32 ConvLayer::forward_replay(std::span<const NodeOutput* const> ins,
                                    const QuantParams& out_quant,
                                    ConvPolicy policy,
                                    std::span<const FaultSite> sites,
                                    const TensorI32* golden) const {
  WF_CHECK(ins.size() == 1);
  std::vector<std::int64_t> bias_acc;
  ConvData data = make_data(*ins[0], out_quant, bias_acc);
  const ConvEngine& engine = select_engine(policy, desc_);
  attach_wg_bank(data, engine);
  TensorI32 out =
      golden != nullptr ? *golden : direct_forward_gemm(desc_, data);
  engine.apply_faults(desc_, data, sites, out);
  return out;
}

void ConvLayer::hash_params(Fnv64& h) const {
  // Structural hyperparameters first: kernel/stride/pad are not derivable
  // from node shapes (different (k, pad) pairs can give the same output
  // size), so omitting them would let distinct networks hash identically.
  h.i64(desc_.kh).i64(desc_.kw).i64(desc_.stride).i64(desc_.pad);
  h.bytes(weights_q_.data(),
          static_cast<std::size_t>(weights_q_.numel()) *
              sizeof(std::int32_t));
  h.f64(w_quant_.scale);
  h.u64(bias_real_.size());
  h.bytes(bias_real_.data(), bias_real_.size() * sizeof(float));
}

}  // namespace winofault
