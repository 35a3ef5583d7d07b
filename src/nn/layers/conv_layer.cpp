#include "nn/layers/conv_layer.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/hash.h"
#include "common/logging.h"
#include "conv/direct_conv.h"
#include "conv/gemm_kernel.h"
#include "conv/winograd_conv.h"
#include "nn/fault_session.h"
#include "nn/golden_cache.h"

namespace winofault {

ConvLayer::ConvLayer(ConvDesc desc, const TensorF& weights,
                     std::vector<float> bias, DType dtype, const char* kind)
    : desc_(desc), kind_(kind), bias_real_(std::move(bias)), dtype_(dtype) {
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

const std::vector<std::int32_t>* ConvLayer::wg_bank(int m) const {
  if (!(desc_.kh == 3 && desc_.kw == 3 && desc_.stride == 1)) return nullptr;
  const int slot = m == 2 ? 0 : 1;
  std::call_once(wg_once_[slot], [&] {
    // transform_filters' layout, one (oc, ic) filter at a time. |U| <=
    // 24^2 * 2^15 < 2^31 for F(4,3) and <= 9 * 2^15 for F(2,3), so int32
    // holds every transformed int16 weight exactly; checked here.
    const WinogradPlan& plan = winograd_plan(m);
    const std::int64_t a2 = std::int64_t{plan.alpha} * plan.alpha;
    std::vector<std::int32_t>& bank = wg_bank_[slot];
    bank.reserve(static_cast<std::size_t>(desc_.out_c * desc_.in_c * a2));
    std::int64_t u[6 * 6];  // alpha <= 6
    for (std::int64_t oc = 0; oc < desc_.out_c; ++oc) {
      for (std::int64_t ic = 0; ic < desc_.in_c; ++ic) {
        filter_transform(plan, &weights_q_.at(oc, ic, 0, 0), desc_.kw, u);
        for (std::int64_t k = 0; k < a2; ++k) {
          WF_CHECK(u[k] >= INT32_MIN && u[k] <= INT32_MAX);
          bank.push_back(static_cast<std::int32_t>(u[k]));
        }
      }
    }
  });
  return &wg_bank_[slot];
}

std::span<const std::int16_t> ConvLayer::transposed_weights() const {
  std::call_once(wt_once_,
                 [&] { wt_ = transpose_weights_i16(desc_, weights_q_); });
  return wt_;
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
                             const QuantParams& out_quant) const {
  WF_CHECK(ins.size() == 1);
  std::vector<std::int64_t> bias_acc;
  return direct_forward_gemm(desc_, make_data(*ins[0], out_quant, bias_acc));
}

TensorI32 ConvLayer::corrupted_weights_gemm(
    ConvData data, FaultModelKind kind,
    std::span<const CellFault> faults) const {
  if (faults.empty()) return direct_forward_gemm(desc_, data);
  TensorI32 corrupted = weights_q_;
  apply_cell_faults(kind, faults, bit_width(dtype_), corrupted.flat());
  data.weights = &corrupted;
  return direct_forward_gemm(desc_, data);
}

void ConvLayer::attach_wg_bank(ConvData& data,
                               const ConvEngine& engine) const {
  if (&engine == &winograd_engine(2)) {
    data.wg_bank32_f2 = wg_bank(2);
  } else if (&engine == &winograd_engine(4)) {
    data.wg_bank32_f4 = wg_bank(4);
  }
}

void ConvLayer::apply_layer_faults(ConvData& data, ConvPolicy policy,
                                   const FaultPlan::LayerFaults& faults,
                                   FaultModelKind kind, TensorI32& out) const {
  const ConvEngine& engine = select_engine(policy, desc_);
  attach_wg_bank(data, engine);
  engine.apply_faults(desc_, data, faults.sites, out);
  apply_output_faults(faults, kind, bit_width(dtype_), out);
}

TensorI32 ConvLayer::forward_replay(std::span<const NodeOutput* const> ins,
                                    const QuantParams& out_quant,
                                    ConvPolicy policy,
                                    const FaultPlan::LayerFaults& faults,
                                    FaultModelKind kind,
                                    const GoldenNode* golden) const {
  WF_CHECK(ins.size() == 1);
  std::vector<std::int64_t> bias_acc;
  ConvData data = make_data(*ins[0], out_quant, bias_acc);
  // The policy engine defines the op space and the fault semantics, but its
  // fault-free output is bit-identical to the direct engine's accumulators
  // requantized (the project's core invariant), so the base always comes
  // from them and apply_faults re-derives the faulted outputs in the
  // engine's own domain.
  TensorI32 out;
  if (golden == nullptr) {
    out = corrupted_weights_gemm(data, kind, faults.weights);
  } else if (golden->input_dirty || !faults.weights.empty()) {
    out = delta_replay(data, *golden, kind, faults.weights);
  } else {
    out = golden->output;
  }
  apply_layer_faults(data, policy, faults, kind, out);
  return out;
}

TensorI32 ConvLayer::delta_replay(
    const ConvData& data, const GoldenNode& golden, FaultModelKind kind,
    std::span<const CellFault> weight_faults) const {
  // golden.output == requantize(acc_g) holds for every golden built without
  // an overlay, which is every golden that replays: an overlay model's
  // session draws no transient faults, so its golden variants never get
  // here. The fill shares this replay's bias and scales, which depend only
  // on the node's fixed input quantization.
  const std::span<const std::int64_t> acc_g = golden.accs.get([&] {
    ConvData clean = data;
    clean.input = &golden.input.tensor;
    return direct_forward_acc(desc_, clean);
  });
  const std::int64_t ohw = desc_.out_h() * desc_.out_w();
  const std::int64_t out_c = desc_.out_c;
  TensorI32 out = golden.output;

  // W·Δx: every output at a position the input change reaches becomes
  // requantize(acc_g + W·Δx), all of them in one span. A channel whose
  // delta is 0 requantizes to its golden output, since golden.output ==
  // requantize(acc_g). delta.acc then holds the moved accumulators.
  ConvDelta delta;
  if (golden.input_dirty) {
    delta = direct_delta_acc(desc_, *data.input, golden.input.tensor,
                             transposed_weights());
    const std::size_t positions = delta.positions.size();
    const std::size_t row = static_cast<std::size_t>(out_c);
    for (std::size_t s = 0; s < positions; ++s) {
      std::int64_t* moved = delta.acc.data() + s * row;
      for (std::int64_t oc = 0; oc < out_c; ++oc) {
        moved[oc] += acc_g[static_cast<std::size_t>(
            oc * ohw + delta.positions[s])];
      }
    }
    std::vector<std::int32_t> requantized(delta.acc.size());
    requantize_span(delta.acc.data(),
                    static_cast<std::int64_t>(delta.acc.size()),
                    data.acc_scale, data.out_quant, requantized.data());
    for (std::size_t s = 0; s < positions; ++s) {
      const std::int32_t* q = requantized.data() + s * row;
      for (std::int64_t oc = 0; oc < out_c; ++oc) {
        out[oc * ohw + delta.positions[s]] = q[oc];
      }
    }
  }
  if (weight_faults.empty()) return out;

  // ΔW·x': the distinct faulted cells, corrupted in draw order (faults on
  // one cell compose), each moving every output of its channel.
  std::vector<std::int64_t> cells;
  for (const CellFault& f : weight_faults) cells.push_back(f.index);
  std::sort(cells.begin(), cells.end());
  cells.erase(std::unique(cells.begin(), cells.end()), cells.end());
  std::vector<std::int32_t> corrupted(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    corrupted[i] = weights_q_[cells[i]];
  }
  std::vector<CellFault> local(weight_faults.begin(), weight_faults.end());
  for (CellFault& f : local) {
    f.index = std::lower_bound(cells.begin(), cells.end(), f.index) -
              cells.begin();
  }
  apply_cell_faults(kind, local, bit_width(dtype_), corrupted);

  std::vector<std::int64_t> slot(static_cast<std::size_t>(ohw), -1);
  for (std::size_t s = 0; s < delta.positions.size(); ++s) {
    slot[static_cast<std::size_t>(delta.positions[s])] =
        static_cast<std::int64_t>(s);
  }
  const std::int64_t taps = desc_.kh * desc_.kw;
  const std::int64_t window = desc_.in_c * taps;
  const std::int64_t ow = desc_.out_w();
  const TensorI32& x = *data.input;
  std::vector<std::int64_t> acc(static_cast<std::size_t>(ohw));
  for (std::size_t i = 0; i < cells.size();) {
    const std::int64_t oc = cells[i] / window;
    for (std::int64_t e = 0; e < ohw; ++e) {
      const std::int64_t s = slot[static_cast<std::size_t>(e)];
      acc[static_cast<std::size_t>(e)] =
          s < 0 ? acc_g[static_cast<std::size_t>(oc * ohw + e)]
                : delta.acc[static_cast<std::size_t>(s * out_c + oc)];
    }
    for (; i < cells.size() && cells[i] / window == oc; ++i) {
      const std::int64_t dw =
          std::int64_t{corrupted[i]} - weights_q_[cells[i]];
      if (dw == 0) continue;
      const std::int64_t r = cells[i] % window;
      const std::int64_t ic = r / taps;
      const std::int64_t ky = r % taps / desc_.kw;
      const std::int64_t kx = r % desc_.kw;
      for (std::int64_t oy = 0; oy < desc_.out_h(); ++oy) {
        const std::int64_t iy = oy * desc_.stride - desc_.pad + ky;
        if (iy < 0 || iy >= desc_.in_h) continue;
        for (std::int64_t ox = 0; ox < ow; ++ox) {
          const std::int64_t ix = ox * desc_.stride - desc_.pad + kx;
          if (ix < 0 || ix >= desc_.in_w) continue;
          acc[static_cast<std::size_t>(oy * ow + ox)] +=
              dw * x.at(0, ic, iy, ix);
        }
      }
    }
    requantize_span(acc.data(), ohw, data.acc_scale, data.out_quant,
                    out.data() + oc * ohw);
  }
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
