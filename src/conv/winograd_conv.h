// Winograd convolution engine (3x3, stride 1): the paper's WG-Conv.
//
// Computation per output tile column (tile t, all output channels):
//   1. input transform  V(ic,t) = B^T d B          — adder tree, block A
//   2. products         P = U(oc,ic) (.) V(ic,t)   — element-wise muls
//      channel accum    Macc(oc,t) += P            — MAC adds, block B
//   3. inverse transform Ys = A^T Macc A           — adder tree, block C
//      exact rescale    y = Ys / S                 (S = g_scale^2)
//   4. bias add + requantize                        — block D
// The filter transform U = Gs g Gs^T is applied offline to static weights
// and is not part of the runtime fault surface.
//
// Op-index layout per layer (T tiles, a2 = alpha^2, IC/OC channels):
//   muls:  ((oc*IC + ic)*T + t)*a2 + pos                      n = OC*IC*T*a2
//   adds:  block A [0, IC*T*k_it)            input-transform adder trees
//          block B [+, OC*IC*T*a2)           channel accumulation
//          block C [+, OC*T*k_inv)           inverse-transform adder trees
//          block D [+, OC*OH*OW)             bias adds (if bias)
//
// Ops inside the scaled Winograd domain (products, blocks B and C) declare
// domain_scale = S to the fault hook so a bit-b flip has the same
// value-domain magnitude as in the direct engine (see bitflip.h).
#pragma once

#include <vector>

#include "conv/conv_desc.h"
#include "conv/engine.h"
#include "conv/winograd_transforms.h"

namespace winofault {

// Derived geometry and op-index bases for one (plan, desc) pair.
struct WgLayout {
  std::int64_t ty_count = 0;
  std::int64_t tx_count = 0;
  std::int64_t tiles = 0;
  std::int64_t a2 = 0;     // alpha^2 products per (oc, ic, tile)
  std::int64_t k_it = 0;   // adds per input-transform tile
  std::int64_t k_inv = 0;  // adds per inverse-transform tile
  std::int64_t n_mul = 0;
  std::int64_t base_b = 0;  // add-block bases (block A starts at 0)
  std::int64_t base_c = 0;
  std::int64_t base_d = 0;
  std::int64_t n_add = 0;

  static WgLayout make(const WinogradPlan& plan, const ConvDesc& desc);
};

class WinogradConvEngine final : public ConvEngine {
 public:
  explicit WinogradConvEngine(int m) : plan_(winograd_plan(m)) {}

  const char* name() const override {
    return plan_.m == 2 ? "winograd-f2" : "winograd-f4";
  }
  bool supports(const ConvDesc& desc) const override {
    return desc.kh == 3 && desc.kw == 3 && desc.stride == 1;
  }
  OpSpace op_space(const ConvDesc& desc, DType dtype) const override;
  TensorI32 forward(const ConvDesc& desc, const ConvData& data) const override;
  void apply_faults(const ConvDesc& desc, const ConvData& data,
                    std::span<const FaultSite> sites,
                    TensorI32& out) const override;

  const WinogradPlan& plan() const { return plan_; }

  // Offline filter transform for all (oc, ic): OC*IC*alpha^2 int64 values.
  std::vector<std::int64_t> transform_filters(const ConvDesc& desc,
                                              const ConvData& data) const;

 private:
  // Calls `body(u_all)` with the filter bank for this call: the cached
  // int32 or int64 bank from ConvData when present, otherwise a fresh
  // transform.
  template <typename Body>
  void with_filter_bank(const ConvDesc& desc, const ConvData& data,
                        Body&& body) const;

  const WinogradPlan& plan_;
};

// Rounded division used to undo the transform scale on *faulted* tiles
// (golden tiles divide exactly; a fault can leave a non-multiple of S).
constexpr std::int64_t div_round_nearest(std::int64_t v, std::int64_t s) {
  return v >= 0 ? (v + s / 2) / s : -((-v + s / 2) / s);
}

// Input transforms for every input channel of tile (ty, tx): fills `v_all`
// (in_c * alpha^2 values), routing every transform add through `hook`
// (op-index block A).
template <typename Hook>
void wg_tile_input_transform(const WinogradPlan& plan, const WgLayout& layout,
                             const ConvDesc& desc, const ConvData& data,
                             std::int64_t ty, std::int64_t tx, Hook&& hook,
                             std::int64_t* v_all) {
  const std::int64_t alpha = plan.alpha;
  const std::int64_t a2 = layout.a2;
  const std::int64_t t = ty * layout.tx_count + tx;
  const TensorI32& input = *data.input;
  std::vector<std::int64_t> patch(static_cast<std::size_t>(a2));
  const std::int64_t iy0 = ty * plan.m - desc.pad;
  const std::int64_t ix0 = tx * plan.m - desc.pad;
  for (std::int64_t ic = 0; ic < desc.in_c; ++ic) {
    for (std::int64_t r = 0; r < alpha; ++r) {
      const std::int64_t iy = iy0 + r;
      for (std::int64_t c = 0; c < alpha; ++c) {
        const std::int64_t ix = ix0 + c;
        const bool inside =
            iy >= 0 && iy < desc.in_h && ix >= 0 && ix < desc.in_w;
        patch[static_cast<std::size_t>(r * alpha + c)] =
            inside ? input.at(0, ic, iy, ix) : 0;
      }
    }
    const std::int64_t base = (ic * layout.tiles + t) * layout.k_it;
    transform_two_pass(
        plan.bt, patch.data(),
        v_all + static_cast<std::size_t>(ic * a2), base,
        [&hook](std::int64_t add_index, std::int64_t value) {
          return hook(OpKind::kAdd, add_index, value, std::int64_t{1});
        });
  }
}

// Products + channel accumulation, inverse transform, and bias/requantize
// for ONE output channel of tile (ty, tx), given the tile's transformed
// inputs `v_all`. The minimal exact replay unit for faults that do not land
// in the input transform (those fan out across channels). `U` is the filter
// bank's element type (int32 or int64).
template <typename Hook, typename U>
void wg_tile_one_oc(const WinogradPlan& plan, const WgLayout& layout,
                    const ConvDesc& desc, const ConvData& data,
                    const U* u_all, const std::int64_t* v_all,
                    std::int64_t ty, std::int64_t tx, std::int64_t oc,
                    Hook&& hook, TensorI32& out) {
  const std::int64_t a2 = layout.a2;
  const std::int64_t t = ty * layout.tx_count + tx;
  const std::int64_t s_scale = plan.total_scale;
  std::int64_t macc[6 * 6] = {};  // a2 <= 36 (alpha = m + 2 <= 6)
  std::int64_t ys[4 * 4];         // m <= 4
  for (std::int64_t ic = 0; ic < desc.in_c; ++ic) {
    const U* u = u_all + static_cast<std::size_t>((oc * desc.in_c + ic) * a2);
    const std::int64_t* v = v_all + static_cast<std::size_t>(ic * a2);
    const std::int64_t chan_base =
        ((oc * desc.in_c + ic) * layout.tiles + t) * a2;
    for (std::int64_t pos = 0; pos < a2; ++pos) {
      std::int64_t prod = std::int64_t{u[pos]} * v[pos];
      prod = hook(OpKind::kMul, chan_base + pos, prod, s_scale);
      macc[static_cast<std::size_t>(pos)] += prod;
      macc[static_cast<std::size_t>(pos)] =
          hook(OpKind::kAdd, layout.base_b + chan_base + pos,
               macc[static_cast<std::size_t>(pos)], s_scale);
    }
  }
  const std::int64_t inv_base =
      layout.base_c + (oc * layout.tiles + t) * layout.k_inv;
  transform_two_pass(
      plan.at, macc, ys, inv_base,
      [&hook, s_scale](std::int64_t add_index, std::int64_t value) {
        return hook(OpKind::kAdd, add_index, value, s_scale);
      });
  for (std::int64_t my = 0; my < plan.m; ++my) {
    const std::int64_t oy = ty * plan.m + my;
    if (oy >= desc.out_h()) continue;
    for (std::int64_t mx = 0; mx < plan.m; ++mx) {
      const std::int64_t ox = tx * plan.m + mx;
      if (ox >= desc.out_w()) continue;
      std::int64_t acc = div_round_nearest(
          ys[static_cast<std::size_t>(my * plan.m + mx)], s_scale);
      if (desc.has_bias) {
        acc += (*data.bias)[static_cast<std::size_t>(oc)];
        const std::int64_t e = (oc * desc.out_h() + oy) * desc.out_w() + ox;
        acc = hook(OpKind::kAdd, layout.base_d + e, acc, std::int64_t{1});
      }
      out.at(0, oc, oy, ox) =
          requantize_value(acc, data.acc_scale, data.out_quant);
    }
  }
}

// Computes one tile column (all output channels of tile (ty, tx)) with every
// primitive op routed through `hook(kind, index, value, domain_scale)`, and
// writes requantized outputs. `u_all` is the offline-transformed filter bank
// from WinogradConvEngine::transform_filters, as int64 or narrowed to int32.
template <typename Hook, typename U>
void wg_tile_column(const WinogradPlan& plan, const WgLayout& layout,
                    const ConvDesc& desc, const ConvData& data,
                    const U* u_all, std::int64_t ty,
                    std::int64_t tx, Hook&& hook, TensorI32& out) {
  std::vector<std::int64_t> v_all(
      static_cast<std::size_t>(desc.in_c * layout.a2));
  wg_tile_input_transform(plan, layout, desc, data, ty, tx, hook,
                          v_all.data());
  for (std::int64_t oc = 0; oc < desc.out_c; ++oc) {
    wg_tile_one_oc(plan, layout, desc, data, u_all, v_all.data(), ty, tx, oc,
                   hook, out);
  }
}

}  // namespace winofault
