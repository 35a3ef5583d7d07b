#include "conv/direct_conv.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/parallel.h"
#include "conv/gemm_kernel.h"
#include "fault/bitflip.h"
#include "fault/fault_model.h"

namespace winofault {
namespace {

// Lowers the input into the [window, out_h*out_w] column matrix the GEMM
// consumes: row r = (ic, ky, kx) window position, column e = (oy, ox)
// output element; out-of-image taps are zero (padding executes as an
// im2col datapath would). For 1x1/stride-1/unpadded convs the input tensor
// already IS the column matrix, signalled by an empty return.
std::vector<std::int32_t> im2col(const ConvDesc& desc, const TensorI32& input) {
  if (desc.kh == 1 && desc.kw == 1 && desc.stride == 1 && desc.pad == 0) {
    return {};
  }
  const std::int64_t oh = desc.out_h(), ow = desc.out_w();
  const std::int64_t e_count = oh * ow;
  const std::int64_t window = desc.in_c * desc.kh * desc.kw;
  std::vector<std::int32_t> col(
      static_cast<std::size_t>(window * e_count), 0);
  const std::int32_t* in = input.data();
  for (std::int64_t ic = 0; ic < desc.in_c; ++ic) {
    const std::int32_t* in_c = in + ic * desc.in_h * desc.in_w;
    for (std::int64_t ky = 0; ky < desc.kh; ++ky) {
      for (std::int64_t kx = 0; kx < desc.kw; ++kx) {
        std::int32_t* row =
            col.data() + ((ic * desc.kh + ky) * desc.kw + kx) * e_count;
        for (std::int64_t oy = 0; oy < oh; ++oy) {
          const std::int64_t iy = oy * desc.stride - desc.pad + ky;
          if (iy < 0 || iy >= desc.in_h) continue;
          const std::int32_t* in_row = in_c + iy * desc.in_w;
          std::int32_t* out_row = row + oy * ow;
          for (std::int64_t ox = 0; ox < ow; ++ox) {
            const std::int64_t ix = ox * desc.stride - desc.pad + kx;
            if (ix >= 0 && ix < desc.in_w) out_row[ox] = in_row[ix];
          }
        }
      }
    }
  }
  return col;
}

// Blocked GEMM core: accumulates out[oc][e] = bias[oc] + sum_r W[oc][r] *
// col[r][e] in int64 and hands each finished (oc, e-block) accumulator span
// to `sink(oc, e0, accs)`. Parallel over output-channel blocks; sinks touch
// disjoint data. The per-tile accumulation runs in the ISA-dispatched
// microkernel (conv/gemm_kernel.h) — bit-identical across scalar, AVX2 and
// AVX-512, so the instrumented reference stays the oracle at every level.
template <typename Sink>
void gemm_acc(const ConvDesc& desc, const ConvData& data, Sink&& sink) {
  constexpr std::int64_t kOcBlock = 4;
  constexpr std::int64_t kEBlock = 512;
  // Below the widest vector width the tile kernel runs scalar; the dot
  // kernel (window-axis vectorization over a transposed column matrix)
  // keeps deep 1x1/2x2-extent layers on SIMD. Same bits either way.
  constexpr std::int64_t kDotMaxE = 16;
  const std::int64_t e_count = desc.out_h() * desc.out_w();
  const std::int64_t window = desc.in_c * desc.kh * desc.kw;
  const std::vector<std::int32_t> col_store = im2col(desc, *data.input);
  const std::int32_t* col =
      col_store.empty() ? data.input->data() : col_store.data();
  const std::int32_t* weights = data.weights->data();
  const std::int64_t oc_blocks = (desc.out_c + kOcBlock - 1) / kOcBlock;
  std::vector<std::int32_t> colT;
  if (e_count < kDotMaxE) {
    colT.resize(static_cast<std::size_t>(window * e_count));
    for (std::int64_t r = 0; r < window; ++r) {
      for (std::int64_t e = 0; e < e_count; ++e) {
        colT[static_cast<std::size_t>(e * window + r)] =
            col[r * e_count + e];
      }
    }
  }
  parallel_for(oc_blocks, default_thread_count(), [&](std::int64_t ob) {
    const std::int64_t oc0 = ob * kOcBlock;
    const std::int64_t oc1 = std::min(oc0 + kOcBlock, desc.out_c);
    std::int64_t acc[kOcBlock][kEBlock];
    for (std::int64_t e0 = 0; e0 < e_count; e0 += kEBlock) {
      const std::int64_t eb = std::min(kEBlock, e_count - e0);
      for (std::int64_t oc = oc0; oc < oc1; ++oc) {
        const std::int64_t init =
            desc.has_bias ? (*data.bias)[static_cast<std::size_t>(oc)] : 0;
        std::fill(acc[oc - oc0], acc[oc - oc0] + eb, init);
      }
      if (!colT.empty()) {
        gemm_microkernel_dot(acc[0], kEBlock, static_cast<int>(oc1 - oc0),
                             eb, colT.data(), weights + oc0 * window, window,
                             window);
      } else {
        gemm_microkernel(acc[0], kEBlock, static_cast<int>(oc1 - oc0), eb,
                         col + e0, e_count, weights + oc0 * window, window,
                         window);
      }
      for (std::int64_t oc = oc0; oc < oc1; ++oc) {
        sink(oc, e0, std::span<const std::int64_t>(
                         acc[oc - oc0], static_cast<std::size_t>(eb)));
      }
    }
  });
}

// One site of an element's MAC chain: window position k (k == window is
// the bias add) and the op it strikes there.
struct MacSite {
  std::int64_t e = 0;
  std::int64_t k = 0;
  OpKind kind = OpKind::kMul;
  int bit = 0;
};

// Plain exact dot of one window segment; vectorizes.
std::int64_t dot_segment(const std::int32_t* a, const std::int32_t* w,
                         std::int64_t n) {
  std::int64_t s = 0;
  for (std::int64_t k = 0; k < n; ++k) {
    s += std::int64_t{a[k]} * std::int64_t{w[k]};
  }
  return s;
}

}  // namespace

TensorI32 direct_forward_gemm(const ConvDesc& desc, const ConvData& data) {
  WF_CHECK(data.input && data.weights);
  WF_CHECK(!desc.has_bias || data.bias);
  TensorI32 out(desc.out_shape());
  const std::int64_t e_count = desc.out_h() * desc.out_w();
  std::int32_t* o = out.data();
  gemm_acc(desc, data,
           [&](std::int64_t oc, std::int64_t e0,
               std::span<const std::int64_t> accs) {
             requantize_span(accs.data(),
                             static_cast<std::int64_t>(accs.size()),
                             data.acc_scale, data.out_quant,
                             o + oc * e_count + e0);
           });
  return out;
}

std::vector<std::int64_t> direct_forward_acc(const ConvDesc& desc,
                                             const ConvData& data) {
  WF_CHECK(data.input && data.weights);
  WF_CHECK(!desc.has_bias || data.bias);
  const std::int64_t e_count = desc.out_h() * desc.out_w();
  std::vector<std::int64_t> acc(
      static_cast<std::size_t>(desc.out_c * e_count));
  gemm_acc(desc, data,
           [&](std::int64_t oc, std::int64_t e0,
               std::span<const std::int64_t> accs) {
             std::copy(accs.begin(), accs.end(),
                       acc.begin() + oc * e_count + e0);
           });
  return acc;
}

std::int64_t direct_acc_absmax(const ConvDesc& desc, const ConvData& data) {
  std::int64_t absmax = 1;
  for (const std::int64_t a : direct_forward_acc(desc, data)) {
    absmax = std::max(absmax, a < 0 ? -a : a);
  }
  return absmax;
}

std::vector<std::int16_t> transpose_weights_i16(const ConvDesc& desc,
                                                const TensorI32& weights) {
  const std::int64_t window = desc.in_c * desc.kh * desc.kw;
  WF_CHECK(weights.numel() == desc.out_c * window);
  std::vector<std::int16_t> wt(static_cast<std::size_t>(weights.numel()));
  const std::int32_t* w = weights.data();
  for (std::int64_t oc = 0; oc < desc.out_c; ++oc) {
    for (std::int64_t r = 0; r < window; ++r) {
      const std::int32_t v = w[oc * window + r];
      WF_CHECK(v >= INT16_MIN && v <= INT16_MAX);
      wt[static_cast<std::size_t>(r * desc.out_c + oc)] =
          static_cast<std::int16_t>(v);
    }
  }
  return wt;
}

ConvDelta direct_delta_acc(const ConvDesc& desc, const TensorI32& input,
                           const TensorI32& golden_input,
                           std::span<const std::int16_t> wt) {
  WF_CHECK(input.shape() == desc.in_shape());
  WF_CHECK(golden_input.shape() == desc.in_shape());
  const std::int64_t hw = desc.in_h * desc.in_w;
  const std::int64_t taps = desc.kh * desc.kw;
  const std::int64_t elements = desc.in_c * hw;
  WF_CHECK(desc.in_c * taps <= INT32_MAX);
  WF_CHECK(elements <= INT32_MAX);
  WF_CHECK(static_cast<std::int64_t>(wt.size()) ==
           desc.in_c * taps * desc.out_c);
  const std::int32_t* x = input.data();
  const std::int32_t* g = golden_input.data();

  // Changed elements grouped by spatial position p = iy*in_w + ix (CSR,
  // input channels ascending), in one branchless pass: every element's
  // term is written at the list's end, and the end moves past it only if
  // the element changed. No write lands past the element's own index, so
  // the list holds `elements` terms. A term's row is ic*kh*kw; the segment
  // that reads it adds the tap.
  const std::unique_ptr<DeltaTerm[]> changed =
      std::make_unique_for_overwrite<DeltaTerm[]>(
          static_cast<std::size_t>(elements));
  std::vector<std::int32_t> start(static_cast<std::size_t>(hw + 1));
  std::int32_t end = 0;
  for (std::int64_t p = 0; p < hw; ++p) {
    start[static_cast<std::size_t>(p)] = end;
    std::int32_t row = 0;
    for (std::int64_t i = p; i < elements; i += hw) {
      const std::int32_t d = x[i] - g[i];
      changed[static_cast<std::size_t>(end)] = DeltaTerm{row, d};
      end += d != 0;
      row += static_cast<std::int32_t>(taps);
    }
  }
  start[static_cast<std::size_t>(hw)] = end;
  ConvDelta delta;
  if (end == 0) return delta;
  // One range check for the whole call: every position runs the pair
  // kernels, or every position the scalar kernel.
  const bool narrow = deltas_fit_int16(changed.get(), end);

  // The output positions the change reaches, ascending: every input
  // position holding a changed element marks the outputs whose window
  // holds it, the rows oy with oy*stride - pad <= iy < oy*stride - pad + kh
  // and the columns likewise.
  const std::int64_t oh = desc.out_h(), ow = desc.out_w();
  const auto outputs_over = [&](std::int64_t i, std::int64_t k,
                                std::int64_t out) {
    const std::int64_t first = i + desc.pad - k + 1;
    return std::pair<std::int64_t, std::int64_t>{
        first <= 0 ? 0 : (first + desc.stride - 1) / desc.stride,
        std::min(out, (i + desc.pad) / desc.stride + 1)};
  };
  std::vector<std::uint8_t> reached(static_cast<std::size_t>(oh * ow), 0);
  for (std::int64_t iy = 0; iy < desc.in_h; ++iy) {
    const auto [oy0, oy1] = outputs_over(iy, desc.kh, oh);
    for (std::int64_t ix = 0; ix < desc.in_w; ++ix) {
      const std::size_t p = static_cast<std::size_t>(iy * desc.in_w + ix);
      if (start[p + 1] == start[p]) continue;
      const auto [ox0, ox1] = outputs_over(ix, desc.kw, ow);
      for (std::int64_t oy = oy0; oy < oy1; ++oy) {
        for (std::int64_t ox = ox0; ox < ox1; ++ox) {
          reached[static_cast<std::size_t>(oy * ow + ox)] = 1;
        }
      }
    }
  }
  for (std::int64_t e = 0; e < oh * ow; ++e) {
    if (reached[static_cast<std::size_t>(e)] != 0) {
      delta.positions.push_back(e);
    }
  }

  // Each reached position hands delta_microkernel the nonempty CSR spans
  // of its window, one segment per tap, read in place.
  const std::int64_t out_c = desc.out_c;
  delta.acc.resize(delta.positions.size() * static_cast<std::size_t>(out_c));
  std::vector<DeltaSegment> segments(static_cast<std::size_t>(taps));
  for (std::size_t s = 0; s < delta.positions.size(); ++s) {
    const std::int64_t iy0 = delta.positions[s] / ow * desc.stride - desc.pad;
    const std::int64_t ix0 = delta.positions[s] % ow * desc.stride - desc.pad;
    std::int64_t count = 0;
    for (std::int64_t ky = 0; ky < desc.kh; ++ky) {
      const std::int64_t iy = iy0 + ky;
      if (iy < 0 || iy >= desc.in_h) continue;
      for (std::int64_t kx = 0; kx < desc.kw; ++kx) {
        const std::int64_t ix = ix0 + kx;
        if (ix < 0 || ix >= desc.in_w) continue;
        const std::size_t p = static_cast<std::size_t>(iy * desc.in_w + ix);
        segments[static_cast<std::size_t>(count)] = DeltaSegment{
            changed.get() + start[p], start[p + 1] - start[p],
            static_cast<std::int32_t>(ky * desc.kw + kx)};
        count += start[p + 1] > start[p];
      }
    }
    delta_microkernel(delta.acc.data() + s * static_cast<std::size_t>(out_c),
                      out_c, segments.data(), count, wt.data(), narrow);
  }
  return delta;
}

OpSpace DirectConvEngine::op_space(const ConvDesc& desc, DType dtype) const {
  const std::int64_t outputs = desc.out_c * desc.out_h() * desc.out_w();
  const std::int64_t window = desc.in_c * desc.kh * desc.kw;
  OpSpace space;
  space.n_mul = outputs * window;
  space.n_add = outputs * (window + (desc.has_bias ? 1 : 0));
  space.mul_bits = FaultModel::mul_surface_bits(dtype);
  space.add_bits = FaultModel::add_surface_bits(dtype);
  return space;
}

TensorI32 DirectConvEngine::forward(const ConvDesc& desc,
                                    const ConvData& data) const {
  return direct_forward_gemm(desc, data);
}

void DirectConvEngine::apply_faults(const ConvDesc& desc, const ConvData& data,
                                    std::span<const FaultSite> sites,
                                    TensorI32& out) const {
  if (sites.empty()) return;
  WF_CHECK(out.shape() == desc.out_shape());
  const std::int64_t window = desc.in_c * desc.kh * desc.kw;
  const std::int64_t adds_per = window + (desc.has_bias ? 1 : 0);

  // Span re-derivation: each faulted element runs its MAC chain as plain
  // dot segments between its sites and one hooked MAC step at each site.
  // A skipped hook is the identity and int64 sums of exact products do
  // not depend on their order, so this equals the per-op hooked chain
  // (direct_output_acc, the oracle). Sites sort by (element, k, kind): at
  // one k the mul hook runs before the add hook, and sites on one op keep
  // their schedule order.
  std::vector<MacSite> steps;
  steps.reserve(sites.size());
  for (const FaultSite& site : sites) {
    const std::int64_t per = site.kind == OpKind::kMul ? window : adds_per;
    steps.push_back(MacSite{site.op_index / per, site.op_index % per,
                            site.kind, site.bit});
  }
  std::stable_sort(steps.begin(), steps.end(),
                   [](const MacSite& a, const MacSite& b) {
                     if (a.e != b.e) return a.e < b.e;
                     if (a.k != b.k) return a.k < b.k;
                     return a.kind < b.kind;
                   });

  const std::int64_t ohw = desc.out_h() * desc.out_w();
  const std::int64_t taps = desc.kh * desc.kw;
  const std::int64_t hw = desc.in_h * desc.in_w;
  const TensorI32& input = *data.input;
  std::vector<std::int32_t> a(static_cast<std::size_t>(window));
  std::size_t i = 0;
  while (i < steps.size()) {
    const std::int64_t e = steps[i].e;
    const std::int64_t oc = e / ohw;
    const std::int64_t oy = (e % ohw) / desc.out_w();
    const std::int64_t ox = e % desc.out_w();
    // The element's window a[(ic*kh + ky)*kw + kx], gathered with im2col's
    // index arithmetic tap by tap: each tap is checked against the padding
    // once, then copied across the input channels (padding taps are zero
    // operands).
    const std::int64_t iy0 = oy * desc.stride - desc.pad;
    const std::int64_t ix0 = ox * desc.stride - desc.pad;
    for (std::int64_t ky = 0; ky < desc.kh; ++ky) {
      const std::int64_t iy = iy0 + ky;
      for (std::int64_t kx = 0; kx < desc.kw; ++kx) {
        const std::int64_t ix = ix0 + kx;
        std::int32_t* dst = a.data() + ky * desc.kw + kx;
        if (iy < 0 || iy >= desc.in_h || ix < 0 || ix >= desc.in_w) {
          for (std::int64_t ic = 0; ic < desc.in_c; ++ic) dst[ic * taps] = 0;
          continue;
        }
        const std::int32_t* src = input.data() + iy * desc.in_w + ix;
        for (std::int64_t ic = 0; ic < desc.in_c; ++ic) {
          dst[ic * taps] = src[ic * hw];
        }
      }
    }
    const std::int32_t* w = data.weights->data() + oc * window;

    std::int64_t acc = 0;
    std::int64_t k0 = 0;  // first window position not yet accumulated
    for (; i < steps.size() && steps[i].e == e && steps[i].k < window;) {
      const std::int64_t k = steps[i].k;
      acc += dot_segment(a.data() + k0, w + k0, k - k0);
      std::int64_t p = std::int64_t{a[static_cast<std::size_t>(k)]} * w[k];
      for (; i < steps.size() && steps[i].e == e && steps[i].k == k &&
             steps[i].kind == OpKind::kMul;
           ++i) {
        p = apply_op_fault(p, steps[i].bit);
      }
      acc += p;
      for (; i < steps.size() && steps[i].e == e && steps[i].k == k; ++i) {
        acc = apply_op_fault(acc, steps[i].bit);
      }
      k0 = k + 1;
    }
    acc += dot_segment(a.data() + k0, w + k0, window - k0);
    if (desc.has_bias) {
      acc += (*data.bias)[static_cast<std::size_t>(oc)];
      for (; i < steps.size() && steps[i].e == e; ++i) {
        acc = apply_op_fault(acc, steps[i].bit);
      }
    }
    out.at(0, oc, oy, ox) =
        requantize_value(acc, data.acc_scale, data.out_quant);
  }
}

}  // namespace winofault
