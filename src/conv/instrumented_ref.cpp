#include "conv/instrumented_ref.h"

#include <vector>

#include "conv/direct_conv.h"
#include "conv/fault_hook.h"
#include "conv/winograd_conv.h"

namespace winofault {
namespace {

// One tile column of the Winograd layer (all output channels of tile
// (ty, tx)) in the canonical op order, with every primitive op routed
// through `hook(kind, index, value, domain_scale)`: the input transforms
// of every input channel (block A), then per output channel the products
// and channel accumulation (muls, block B), the inverse transform (block
// C) and the bias adds (block D), requantized into `out`.
void instrumented_tile(const WinogradPlan& plan, const WgLayout& layout,
                       const ConvDesc& desc, const ConvData& data,
                       const std::int64_t* u_all, std::int64_t ty,
                       std::int64_t tx, const SiteFilterHook& hook,
                       TensorI32& out) {
  const std::int64_t alpha = plan.alpha;
  const std::int64_t a2 = layout.a2;
  const std::int64_t t = ty * layout.tx_count + tx;
  const std::int64_t s_scale = plan.total_scale;
  const TensorI32& input = *data.input;
  std::vector<std::int64_t> v_all(static_cast<std::size_t>(desc.in_c * a2));
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
    transform_two_pass(plan.bt, patch.data(),
                       v_all.data() + static_cast<std::size_t>(ic * a2),
                       (ic * layout.tiles + t) * layout.k_it,
                       [&hook](std::int64_t add_index, std::int64_t value) {
                         return hook(OpKind::kAdd, add_index, value, 1);
                       });
  }

  for (std::int64_t oc = 0; oc < desc.out_c; ++oc) {
    std::int64_t macc[6 * 6] = {};  // a2 <= 36 (alpha = m + 2 <= 6)
    std::int64_t ys[4 * 4];         // m <= 4
    for (std::int64_t ic = 0; ic < desc.in_c; ++ic) {
      const std::int64_t* u = u_all + (oc * desc.in_c + ic) * a2;
      const std::int64_t* v = v_all.data() + ic * a2;
      const std::int64_t chan_base =
          ((oc * desc.in_c + ic) * layout.tiles + t) * a2;
      for (std::int64_t pos = 0; pos < a2; ++pos) {
        std::int64_t prod = u[pos] * v[pos];
        prod = hook(OpKind::kMul, chan_base + pos, prod, s_scale);
        macc[pos] += prod;
        macc[pos] = hook(OpKind::kAdd, layout.base_b + chan_base + pos,
                         macc[pos], s_scale);
      }
    }
    transform_two_pass(
        plan.at, macc, ys,
        layout.base_c + (oc * layout.tiles + t) * layout.k_inv,
        [&hook, s_scale](std::int64_t add_index, std::int64_t value) {
          return hook(OpKind::kAdd, add_index, value, s_scale);
        });
    for (std::int64_t my = 0; my < plan.m; ++my) {
      const std::int64_t oy = ty * plan.m + my;
      if (oy >= desc.out_h()) continue;
      for (std::int64_t mx = 0; mx < plan.m; ++mx) {
        const std::int64_t ox = tx * plan.m + mx;
        if (ox >= desc.out_w()) continue;
        std::int64_t acc = div_round_nearest(ys[my * plan.m + mx], s_scale);
        if (desc.has_bias) {
          acc += (*data.bias)[static_cast<std::size_t>(oc)];
          const std::int64_t e = (oc * desc.out_h() + oy) * desc.out_w() + ox;
          acc = hook(OpKind::kAdd, layout.base_d + e, acc, 1);
        }
        out.at(0, oc, oy, ox) =
            requantize_value(acc, data.acc_scale, data.out_quant);
      }
    }
  }
}

}  // namespace

TensorI32 direct_forward_instrumented(const ConvDesc& desc,
                                      const ConvData& data,
                                      std::span<const FaultSite> sites) {
  TensorI32 out(desc.out_shape());
  SiteFilterHook hook(sites);
  for (std::int64_t oc = 0; oc < desc.out_c; ++oc) {
    for (std::int64_t oy = 0; oy < desc.out_h(); ++oy) {
      for (std::int64_t ox = 0; ox < desc.out_w(); ++ox) {
        const std::int64_t acc =
            direct_output_acc(desc, data, oc, oy, ox, hook);
        out.at(0, oc, oy, ox) =
            requantize_value(acc, data.acc_scale, data.out_quant);
      }
    }
  }
  return out;
}

TensorI32 winograd_forward_instrumented(int m, const ConvDesc& desc,
                                        const ConvData& data,
                                        std::span<const FaultSite> sites) {
  const auto& engine =
      static_cast<const WinogradConvEngine&>(winograd_engine(m));
  const WinogradPlan& plan = engine.plan();
  const WgLayout layout = WgLayout::make(plan, desc);
  const std::vector<std::int64_t> u_all = engine.transform_filters(desc, data);
  TensorI32 out(desc.out_shape());
  SiteFilterHook hook(sites);
  for (std::int64_t ty = 0; ty < layout.ty_count; ++ty) {
    for (std::int64_t tx = 0; tx < layout.tx_count; ++tx) {
      instrumented_tile(plan, layout, desc, data, u_all.data(), ty, tx, hook,
                        out);
    }
  }
  return out;
}

}  // namespace winofault
