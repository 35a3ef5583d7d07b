// Direct (standard) convolution engine: the paper's ST-Conv baseline.
//
// Op space per layer (batch 1, E = OC*OH*OW outputs, M = IC*KH*KW window):
//   muls: E*M, index = e*M + k            (k window-position within output e)
//   adds: E*(M + has_bias), index = e*A + k — the MAC accumulation chain
//         (every product is accumulated, including the first, as MAC
//         hardware does), optionally followed by the bias add at k = M.
// Padding taps execute like an im2col datapath would (a zero operand), so
// they are part of the op space.
#pragma once

#include <span>
#include <vector>

#include "conv/conv_desc.h"
#include "conv/engine.h"

namespace winofault {

class DirectConvEngine final : public ConvEngine {
 public:
  const char* name() const override { return "direct"; }
  bool supports(const ConvDesc&) const override { return true; }
  OpSpace op_space(const ConvDesc& desc, DType dtype) const override;
  TensorI32 forward(const ConvDesc& desc, const ConvData& data) const override;
  void apply_faults(const ConvDesc& desc, const ConvData& data,
                    std::span<const FaultSite> sites,
                    TensorI32& out) const override;
};

// Fault-free fast path: im2col + blocked GEMM with exact int64 accumulation.
// Integer addition is order-independent, so the result is bit-identical to
// the instrumented reference loop for every shape (validated in
// golden_cache_test). DirectConvEngine::forward routes here; the
// instrumented direct_output_acc below stays the exactness reference
// (direct_forward_instrumented with no sites runs it over every output,
// conv/instrumented_ref.h).
TensorI32 direct_forward_gemm(const ConvDesc& desc, const ConvData& data);

// Max |raw accumulator| over all output elements, computed on the GEMM fast
// path (calibration support; the accumulator values are engine-independent).
std::int64_t direct_acc_absmax(const ConvDesc& desc, const ConvData& data);

// The raw int64 accumulators (bias included) that direct_forward_gemm
// requantizes, [out_c][out_h*out_w], on the same GEMM fast path: a golden's
// accumulators for delta replay (nn/golden_cache.h).
std::vector<std::int64_t> direct_forward_acc(const ConvDesc& desc,
                                             const ConvData& data);

// The weights as the delta kernel reads them: int16, transposed to
// [window][out_c], wt[r * out_c + oc] == weights[oc][r]. Every weight must
// fit int16, as int8 and int16 layers' do.
std::vector<std::int16_t> transpose_weights_i16(const ConvDesc& desc,
                                                const TensorI32& weights);

// Exact W·(x' - x) of a conv whose input changed from `golden_input` (x) to
// `input` (x'), for every output position the change reaches. One
// branchless pass lists the changed input elements by spatial position
// (CSR, rows ic*kh*kw), and each input position that holds one marks the
// output positions whose window holds it. Each reached position hands
// delta_microkernel the nonempty lists of its window in place, one
// DeltaSegment per tap ky*kw + kx, which completes each row to r =
// (ic*kh + ky)*kw + kx, im2col's index arithmetic, so any stride, padding
// and kernel size works; the kernel sums them against `wt`
// (transpose_weights_i16). Padding taps are zero in both inputs and drop
// out. Whether every delta fits int16 is checked once per call, and the
// answer sends every position to the pair kernels or to the scalar
// kernel. Exact at every ISA level.
struct ConvDelta {
  std::vector<std::int64_t> positions;  // reached oy*out_w + ox, ascending
  std::vector<std::int64_t> acc;        // [positions.size()][out_c]
};
ConvDelta direct_delta_acc(const ConvDesc& desc, const TensorI32& input,
                           const TensorI32& golden_input,
                           std::span<const std::int16_t> wt);

// Accumulator of one output element with every primitive op routed through
// `hook(kind, global_op_index, value, domain_scale)`: the per-op oracle
// (direct_forward_instrumented) and ABFT's checksum recompute. Replay
// (DirectConvEngine::apply_faults) re-derives faulted elements without it.
template <typename Hook>
std::int64_t direct_output_acc(const ConvDesc& desc, const ConvData& data,
                               std::int64_t oc, std::int64_t oy,
                               std::int64_t ox, Hook&& hook) {
  const TensorI32& input = *data.input;
  const TensorI32& weights = *data.weights;
  const std::int64_t window = desc.in_c * desc.kh * desc.kw;
  const std::int64_t e = (oc * desc.out_h() + oy) * desc.out_w() + ox;
  const std::int64_t mul_base = e * window;
  const std::int64_t adds_per = window + (desc.has_bias ? 1 : 0);
  const std::int64_t add_base = e * adds_per;

  std::int64_t acc = 0;
  std::int64_t k = 0;
  const std::int64_t iy0 = oy * desc.stride - desc.pad;
  const std::int64_t ix0 = ox * desc.stride - desc.pad;
  for (std::int64_t ic = 0; ic < desc.in_c; ++ic) {
    for (std::int64_t ky = 0; ky < desc.kh; ++ky) {
      const std::int64_t iy = iy0 + ky;
      for (std::int64_t kx = 0; kx < desc.kw; ++kx, ++k) {
        const std::int64_t ix = ix0 + kx;
        const bool inside =
            iy >= 0 && iy < desc.in_h && ix >= 0 && ix < desc.in_w;
        const std::int64_t a = inside ? input.at(0, ic, iy, ix) : 0;
        const std::int64_t w = weights.at(oc, ic, ky, kx);
        std::int64_t p = a * w;
        p = hook(OpKind::kMul, mul_base + k, p, 1);
        acc += p;
        acc = hook(OpKind::kAdd, add_base + k, acc, 1);
      }
    }
  }
  if (desc.has_bias) {
    acc += (*data.bias)[static_cast<std::size_t>(oc)];
    acc = hook(OpKind::kAdd, add_base + window, acc, 1);
  }
  return acc;
}

}  // namespace winofault
