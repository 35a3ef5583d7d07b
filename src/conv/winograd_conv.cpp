#include "conv/winograd_conv.h"

#include <algorithm>
#include <tuple>

#include "common/logging.h"
#include "common/parallel.h"
#include "fault/bitflip.h"
#include "fault/fault_model.h"

namespace winofault {
namespace {

// The plans' constant transforms, one 1-D pass each: y = B^T x and
// y = A^T x over x[0], x[xs], ... with the zero coefficients dropped.
// Integer arithmetic is exact, so they equal transform_two_pass's values.
template <int M>
struct WgConst;

template <>
struct WgConst<2> {
  static void bt(const std::int64_t* x, std::int64_t xs, std::int64_t* y,
                 std::int64_t ys) {
    const std::int64_t x0 = x[0], x1 = x[xs], x2 = x[2 * xs], x3 = x[3 * xs];
    y[0] = x0 - x2;
    y[ys] = x1 + x2;
    y[2 * ys] = x2 - x1;
    y[3 * ys] = x1 - x3;
  }
  static void at(const std::int64_t* x, std::int64_t xs, std::int64_t* y,
                 std::int64_t ys) {
    const std::int64_t x1 = x[xs], x2 = x[2 * xs];
    y[0] = x[0] + x1 + x2;
    y[ys] = x1 - x2 - x[3 * xs];
  }
};

template <>
struct WgConst<4> {
  static void bt(const std::int64_t* x, std::int64_t xs, std::int64_t* y,
                 std::int64_t ys) {
    const std::int64_t x0 = x[0], x1 = x[xs], x2 = x[2 * xs], x3 = x[3 * xs],
                       x4 = x[4 * xs], x5 = x[5 * xs];
    y[0] = 4 * x0 - 5 * x2 + x4;
    y[ys] = x3 + x4 - 4 * (x1 + x2);
    y[2 * ys] = x4 - x3 + 4 * (x1 - x2);
    y[3 * ys] = x4 - x2 + 2 * (x3 - x1);
    y[4 * ys] = x4 - x2 - 2 * (x3 - x1);
    y[5 * ys] = 4 * x1 - 5 * x3 + x5;
  }
  static void at(const std::int64_t* x, std::int64_t xs, std::int64_t* y,
                 std::int64_t ys) {
    const std::int64_t sum12 = x[xs] + x[2 * xs], dif12 = x[xs] - x[2 * xs];
    const std::int64_t sum34 = x[3 * xs] + x[4 * xs];
    const std::int64_t dif34 = x[3 * xs] - x[4 * xs];
    y[0] = x[0] + sum12 + sum34;
    y[ys] = dif12 + 2 * dif34;
    y[2 * ys] = sum12 + 4 * sum34;
    y[3 * ys] = dif12 + 8 * dif34 + x[5 * xs];
  }
};

// V = B^T d B of one alpha x alpha patch, hook-free.
template <int M>
void input_transform(const std::int64_t* d, std::int64_t* v) {
  constexpr int kAlpha = M + 2;
  std::int64_t tmp[kAlpha * kAlpha];
  for (int c = 0; c < kAlpha; ++c) {
    WgConst<M>::bt(d + c, kAlpha, tmp + c, kAlpha);
  }
  for (int r = 0; r < kAlpha; ++r) {
    WgConst<M>::bt(tmp + r * kAlpha, 1, v + r * kAlpha, 1);
  }
}

// Ys = A^T Macc A of one tile, hook-free.
template <int M>
void inverse_transform(const std::int64_t* macc, std::int64_t* ys) {
  constexpr int kAlpha = M + 2;
  std::int64_t tmp[M * kAlpha];
  for (int c = 0; c < kAlpha; ++c) {
    WgConst<M>::at(macc + c, kAlpha, tmp + c, kAlpha);
  }
  for (int r = 0; r < M; ++r) {
    WgConst<M>::at(tmp + r * kAlpha, 1, ys + r * M, 1);
  }
}

// macc[pos] += sum over `count` input channels of U (.) V: the plain
// segment of a channel accumulation between two hooked steps; vectorizes.
template <int A2, typename U>
void channel_sum(std::int64_t* macc, const U* u, const std::int64_t* v,
                 std::int64_t count) {
  std::int64_t s[A2] = {};
  for (std::int64_t ic = 0; ic < count; ++ic, u += A2, v += A2) {
    for (int pos = 0; pos < A2; ++pos) s[pos] += std::int64_t{u[pos]} * v[pos];
  }
  for (int pos = 0; pos < A2; ++pos) macc[pos] += s[pos];
}

// One site decoded to its place in a tile's computation (see the op-index
// layout in the header).
struct TileSite {
  std::int64_t tile = 0;
  int stage = 0;         // 0 block A, 1 mul or block B, 2 block C, 3 block D
  std::int64_t ch = 0;   // block A: input channel; otherwise output channel
  std::int64_t ic = 0;   // stage 1: input channel
  std::int64_t pos = 0;  // stage 1: transform position; block D: element
  FaultSite site;
};

TileSite decode_site(const WgLayout& layout, const ConvDesc& desc, int m,
                     const FaultSite& site) {
  TileSite s;
  s.site = site;
  const std::int64_t idx = site.op_index;
  const bool mul = site.kind == OpKind::kMul;
  if (mul || (idx >= layout.base_b && idx < layout.base_c)) {
    const std::int64_t r = mul ? idx : idx - layout.base_b;
    const std::int64_t chan = r / (layout.a2 * layout.tiles);  // oc*IC + ic
    s.stage = 1;
    s.tile = (r / layout.a2) % layout.tiles;
    s.ch = chan / desc.in_c;
    s.ic = chan % desc.in_c;
    s.pos = r % layout.a2;
  } else if (idx < layout.base_b) {
    s.stage = 0;
    s.tile = (idx / layout.k_it) % layout.tiles;
    s.ch = idx / (layout.k_it * layout.tiles);
  } else if (idx < layout.base_d) {
    const std::int64_t r = idx - layout.base_c;
    s.stage = 2;
    s.tile = (r / layout.k_inv) % layout.tiles;
    s.ch = r / (layout.k_inv * layout.tiles);
  } else {
    const std::int64_t e = idx - layout.base_d;
    const std::int64_t ohw = desc.out_h() * desc.out_w();
    const std::int64_t oy = (e % ohw) / desc.out_w();
    const std::int64_t ox = e % desc.out_w();
    s.stage = 3;
    s.tile = (oy / m) * layout.tx_count + ox / m;
    s.ch = e / ohw;
    s.pos = e;
  }
  return s;
}

// The hook of a hooked transform whose adds carry `sites`: every add a site
// names is struck, sites on one add in schedule order.
auto transform_hook(std::span<const TileSite> sites, std::int64_t scale) {
  return [sites, scale](std::int64_t add_index, std::int64_t value) {
    for (const TileSite& s : sites) {
      if (s.site.op_index == add_index) {
        value = apply_op_fault(value, s.site.bit, scale);
      }
    }
    return value;
  };
}

// Span re-derivation of tile t's output channel `oc` from the tile's
// transformed inputs `v`, with `sites` (its stage 1-3 sites, sorted by
// stage, then (ic, pos, kind)) active. The channel sum runs as plain
// segments between the input channels that carry a site, and one hooked
// step at each; a skipped hook is the identity and int64 sums of exact
// products do not depend on their order, so this equals the per-op hooked
// reference. The inverse transform and bias add keep their hooks where a
// site strikes them.
template <int M, typename U>
void rederive_channel(const WgLayout& layout, const ConvDesc& desc,
                      const ConvData& data, const U* u_all,
                      const std::int64_t* v, std::int64_t t, std::int64_t oc,
                      std::span<const TileSite> sites, TensorI32& out) {
  constexpr int kA2 = (M + 2) * (M + 2);
  const std::int64_t s_scale = winograd_plan(M).total_scale;
  const U* u = u_all + oc * desc.in_c * kA2;
  std::int64_t macc[kA2] = {};
  std::size_t i = 0;
  std::int64_t ic0 = 0;  // first input channel not yet accumulated
  while (i < sites.size() && sites[i].stage == 1) {
    const std::int64_t ic = sites[i].ic;
    channel_sum<kA2>(macc, u + ic0 * kA2, v + ic0 * kA2, ic - ic0);
    for (int pos = 0; pos < kA2; ++pos) {
      const auto at = [&] {
        return i < sites.size() && sites[i].stage == 1 &&
               sites[i].ic == ic && sites[i].pos == pos;
      };
      std::int64_t prod = std::int64_t{u[ic * kA2 + pos]} * v[ic * kA2 + pos];
      for (; at() && sites[i].site.kind == OpKind::kMul; ++i) {
        prod = apply_op_fault(prod, sites[i].site.bit, s_scale);
      }
      macc[pos] += prod;
      for (; at(); ++i) {
        macc[pos] = apply_op_fault(macc[pos], sites[i].site.bit, s_scale);
      }
    }
    ic0 = ic + 1;
  }
  channel_sum<kA2>(macc, u + ic0 * kA2, v + ic0 * kA2, desc.in_c - ic0);

  std::int64_t ys[M * M];
  std::size_t c_end = i;
  while (c_end < sites.size() && sites[c_end].stage == 2) ++c_end;
  if (c_end > i) {
    transform_two_pass(
        winograd_plan(M).at, macc, ys,
        layout.base_c + (oc * layout.tiles + t) * layout.k_inv,
        transform_hook(sites.subspan(i, c_end - i), s_scale));
  } else {
    inverse_transform<M>(macc, ys);
  }
  i = c_end;

  const std::int64_t ty = t / layout.tx_count, tx = t % layout.tx_count;
  for (std::int64_t my = 0; my < M; ++my) {
    const std::int64_t oy = ty * M + my;
    if (oy >= desc.out_h()) continue;
    for (std::int64_t mx = 0; mx < M; ++mx) {
      const std::int64_t ox = tx * M + mx;
      if (ox >= desc.out_w()) continue;
      std::int64_t acc = div_round_nearest(ys[my * M + mx], s_scale);
      if (desc.has_bias) {
        acc += (*data.bias)[static_cast<std::size_t>(oc)];
        const std::int64_t e = (oc * desc.out_h() + oy) * desc.out_w() + ox;
        for (; i < sites.size() && sites[i].pos == e; ++i) {
          acc = apply_op_fault(acc, sites[i].site.bit);
        }
      }
      out.at(0, oc, oy, ox) =
          requantize_value(acc, data.acc_scale, data.out_quant);
    }
  }
}

// Re-derives tile t with `sites` (all of the tile's sites, sorted as
// apply_faults sorts them) active: every output channel when `all_channels`
// is set or a block-A site fans out across them, otherwise only the
// channels a site touches. `v` holds in_c * alpha^2 values of scratch.
// Input transforms are hook-free except in a channel that carries a
// block-A site.
template <int M, typename U>
void rederive_tile(const WgLayout& layout, const ConvDesc& desc,
                   const ConvData& data, const U* u_all, std::int64_t t,
                   std::span<const TileSite> sites, bool all_channels,
                   std::int64_t* v, TensorI32& out) {
  constexpr int kAlpha = M + 2, kA2 = kAlpha * kAlpha;
  const std::int64_t ty = t / layout.tx_count, tx = t % layout.tx_count;
  const std::int64_t iy0 = ty * M - desc.pad, ix0 = tx * M - desc.pad;
  const std::int32_t* in = data.input->data();
  std::size_t i = 0;
  for (std::int64_t ic = 0; ic < desc.in_c; ++ic) {
    std::int64_t patch[kA2];
    const std::int32_t* plane = in + ic * desc.in_h * desc.in_w;
    for (std::int64_t r = 0; r < kAlpha; ++r) {
      const std::int64_t iy = iy0 + r;
      const bool row_inside = iy >= 0 && iy < desc.in_h;
      for (std::int64_t c = 0; c < kAlpha; ++c) {
        const std::int64_t ix = ix0 + c;
        patch[r * kAlpha + c] = row_inside && ix >= 0 && ix < desc.in_w
                                    ? plane[iy * desc.in_w + ix]
                                    : 0;
      }
    }
    std::size_t a_end = i;
    while (a_end < sites.size() && sites[a_end].stage == 0 &&
           sites[a_end].ch == ic) {
      ++a_end;
    }
    if (a_end > i) {
      transform_two_pass(winograd_plan(M).bt, patch, v + ic * kA2,
                         (ic * layout.tiles + t) * layout.k_it,
                         transform_hook(sites.subspan(i, a_end - i), 1));
      i = a_end;
    } else {
      input_transform<M>(patch, v + ic * kA2);
    }
  }
  const auto channel = [&](std::int64_t oc) {
    std::size_t end = i;
    while (end < sites.size() && sites[end].ch == oc) ++end;
    rederive_channel<M>(layout, desc, data, u_all, v, t, oc,
                        sites.subspan(i, end - i), out);
    i = end;
  };
  if (all_channels || i > 0) {
    for (std::int64_t oc = 0; oc < desc.out_c; ++oc) channel(oc);
  } else {
    while (i < sites.size()) channel(sites[i].ch);
  }
}

}  // namespace

WgLayout WgLayout::make(const WinogradPlan& plan, const ConvDesc& desc) {
  WgLayout layout;
  layout.ty_count = (desc.out_h() + plan.m - 1) / plan.m;
  layout.tx_count = (desc.out_w() + plan.m - 1) / plan.m;
  layout.tiles = layout.ty_count * layout.tx_count;
  layout.a2 = static_cast<std::int64_t>(plan.alpha) * plan.alpha;
  layout.k_it = plan.input_transform_adds();
  layout.k_inv = plan.inverse_transform_adds();
  layout.n_mul = desc.out_c * desc.in_c * layout.tiles * layout.a2;
  const std::int64_t block_a = desc.in_c * layout.tiles * layout.k_it;
  const std::int64_t block_b = desc.out_c * desc.in_c * layout.tiles * layout.a2;
  const std::int64_t block_c = desc.out_c * layout.tiles * layout.k_inv;
  const std::int64_t block_d =
      desc.has_bias ? desc.out_c * desc.out_h() * desc.out_w() : 0;
  layout.base_b = block_a;
  layout.base_c = layout.base_b + block_b;
  layout.base_d = layout.base_c + block_c;
  layout.n_add = layout.base_d + block_d;
  return layout;
}

OpSpace WinogradConvEngine::op_space(const ConvDesc& desc, DType dtype) const {
  WF_CHECK(supports(desc));
  const WgLayout layout = WgLayout::make(plan_, desc);
  OpSpace space;
  space.n_mul = layout.n_mul;
  space.n_add = layout.n_add;
  space.mul_bits = FaultModel::mul_surface_bits(dtype);
  space.add_bits = FaultModel::add_surface_bits(dtype);
  return space;
}

std::vector<std::int64_t> WinogradConvEngine::transform_filters(
    const ConvDesc& desc, const ConvData& data) const {
  const std::int64_t a2 = static_cast<std::int64_t>(plan_.alpha) * plan_.alpha;
  std::vector<std::int64_t> u_all(
      static_cast<std::size_t>(desc.out_c * desc.in_c * a2));
  for (std::int64_t oc = 0; oc < desc.out_c; ++oc) {
    for (std::int64_t ic = 0; ic < desc.in_c; ++ic) {
      const std::int32_t* g = &data.weights->at(oc, ic, 0, 0);
      filter_transform(plan_, g, desc.kw,
                       u_all.data() +
                           static_cast<std::size_t>((oc * desc.in_c + ic) * a2));
    }
  }
  return u_all;
}

template <typename Body>
void WinogradConvEngine::with_filter_bank(const ConvDesc& desc,
                                          const ConvData& data,
                                          Body&& body) const {
  const std::vector<std::int32_t>* bank32 =
      plan_.m == 2 ? data.wg_bank32_f2 : data.wg_bank32_f4;
  if (bank32 != nullptr) return body(bank32->data());
  const std::vector<std::int64_t>* bank =
      plan_.m == 2 ? data.wg_bank_f2 : data.wg_bank_f4;
  if (bank != nullptr) return body(bank->data());
  const std::vector<std::int64_t> local = transform_filters(desc, data);
  body(local.data());
}


TensorI32 WinogradConvEngine::forward(const ConvDesc& desc,
                                      const ConvData& data) const {
  WF_CHECK(supports(desc));
  WF_CHECK(data.input && data.weights);
  WF_CHECK(!desc.has_bias || data.bias);
  const WgLayout layout = WgLayout::make(plan_, desc);
  TensorI32 out(desc.out_shape());
  // Tiles write disjoint output regions and share only the read-only
  // filter bank, so they parallelize freely; nested calls (e.g. under a
  // campaign's per-cell loop) run inline on the caller.
  with_filter_bank(desc, data, [&](const auto* u_all) {
    parallel_for(layout.tiles, default_thread_count(), [&](std::int64_t t) {
      std::vector<std::int64_t> v(
          static_cast<std::size_t>(desc.in_c * layout.a2));
      if (plan_.m == 2) {
        rederive_tile<2>(layout, desc, data, u_all, t, {}, true, v.data(),
                         out);
      } else {
        rederive_tile<4>(layout, desc, data, u_all, t, {}, true, v.data(),
                         out);
      }
    });
  });
  return out;
}

void WinogradConvEngine::apply_faults(const ConvDesc& desc,
                                      const ConvData& data,
                                      std::span<const FaultSite> sites,
                                      TensorI32& out) const {
  if (sites.empty()) return;
  WF_CHECK(out.shape() == desc.out_shape());
  const WgLayout layout = WgLayout::make(plan_, desc);

  // Each tile that carries sites is re-derived once with all of them
  // active. Sorting by (tile, block A first, channel, stage, ic, pos, kind)
  // hands every stage its sites in the order it meets them; the sort is
  // stable, so sites on one op keep their schedule order.
  std::vector<TileSite> decoded;
  decoded.reserve(sites.size());
  for (const FaultSite& site : sites) {
    decoded.push_back(decode_site(layout, desc, plan_.m, site));
  }
  const auto key = [](const TileSite& s) {
    return std::tuple(s.tile, s.stage != 0, s.ch, s.stage, s.ic, s.pos,
                      s.site.kind);
  };
  std::stable_sort(decoded.begin(), decoded.end(),
                   [&](const TileSite& a, const TileSite& b) {
                     return key(a) < key(b);
                   });

  with_filter_bank(desc, data, [&](const auto* u_all) {
    std::vector<std::int64_t> v(
        static_cast<std::size_t>(desc.in_c * layout.a2));
    const std::span<const TileSite> all(decoded);
    for (std::size_t i = 0; i < all.size();) {
      std::size_t end = i;
      while (end < all.size() && all[end].tile == all[i].tile) ++end;
      const std::span<const TileSite> tile_sites = all.subspan(i, end - i);
      if (plan_.m == 2) {
        rederive_tile<2>(layout, desc, data, u_all, all[i].tile, tile_sites,
                         false, v.data(), out);
      } else {
        rederive_tile<4>(layout, desc, data, u_all, all[i].tile, tile_sites,
                         false, v.data(), out);
      }
      i = end;
    }
  });
}

}  // namespace winofault
