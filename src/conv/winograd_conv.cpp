#include "conv/winograd_conv.h"

#include <algorithm>
#include <set>

#include "common/logging.h"
#include "common/parallel.h"
#include "conv/fault_hook.h"
#include "fault/fault_model.h"

namespace winofault {

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
  // Tile columns write disjoint output regions and share only the read-only
  // filter bank, so they parallelize freely; nested calls (e.g. under the
  // a campaign's per-cell loop) run inline on the caller.
  with_filter_bank(desc, data, [&](const auto* u_all) {
    parallel_for(layout.tiles, default_thread_count(), [&](std::int64_t t) {
      FaultHookNone hook;
      wg_tile_column(plan_, layout, desc, data, u_all, t / layout.tx_count,
                     t % layout.tx_count, hook, out);
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

  // Decode each site to its tile; a tile column is recomputed once with all
  // of its sites active (input-transform faults fan out to every output
  // channel of the tile, so the whole column is the minimal exact unit).
  auto site_tile = [&](const FaultSite& site) -> std::int64_t {
    if (site.kind == OpKind::kMul) {
      return (site.op_index / layout.a2) % layout.tiles;
    }
    const std::int64_t idx = site.op_index;
    if (idx < layout.base_b) {  // block A: input transform
      return (idx / layout.k_it) % layout.tiles;
    }
    if (idx < layout.base_c) {  // block B: channel accumulation
      return ((idx - layout.base_b) / layout.a2) % layout.tiles;
    }
    if (idx < layout.base_d) {  // block C: inverse transform
      return ((idx - layout.base_c) / layout.k_inv) % layout.tiles;
    }
    // block D: bias add on output element e.
    const std::int64_t e = idx - layout.base_d;
    const std::int64_t ohw = desc.out_h() * desc.out_w();
    const std::int64_t oy = (e % ohw) / desc.out_w();
    const std::int64_t ox = e % desc.out_w();
    return (oy / plan_.m) * layout.tx_count + (ox / plan_.m);
  };

  std::vector<std::pair<std::int64_t, FaultSite>> by_tile;
  by_tile.reserve(sites.size());
  for (const FaultSite& site : sites)
    by_tile.emplace_back(site_tile(site), site);
  std::stable_sort(by_tile.begin(), by_tile.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });

  // Output channel a non-input-transform site affects (see the op-index
  // layout in the header comment).
  auto site_oc = [&](const FaultSite& site) -> std::int64_t {
    if (site.kind == OpKind::kMul) {
      return site.op_index / (layout.a2 * layout.tiles * desc.in_c);
    }
    const std::int64_t idx = site.op_index;
    if (idx < layout.base_c) {  // block B (block A handled by the caller)
      return (idx - layout.base_b) / (layout.a2 * layout.tiles * desc.in_c);
    }
    if (idx < layout.base_d) {  // block C
      return (idx - layout.base_c) / (layout.k_inv * layout.tiles);
    }
    return (idx - layout.base_d) / (desc.out_h() * desc.out_w());  // block D
  };

  with_filter_bank(desc, data, [&](const auto* u_all) {
    std::size_t i = 0;
    std::vector<FaultSite> group;
    std::vector<std::int64_t> v_all(
        static_cast<std::size_t>(desc.in_c * layout.a2));
    std::vector<std::int64_t> ocs;
    while (i < by_tile.size()) {
      const std::int64_t t = by_tile[i].first;
      group.clear();
      for (; i < by_tile.size() && by_tile[i].first == t; ++i)
        group.push_back(by_tile[i].second);
      const std::int64_t ty = t / layout.tx_count;
      const std::int64_t tx = t % layout.tx_count;
      SiteFilterHook hook(group);
      // Input-transform faults fan out across every output channel of the
      // tile, so those groups recompute the whole column. Any other site
      // touches exactly one channel: transform the tile's inputs once
      // (fault-free — no block-A site means the hook is identity there) and
      // recompute only the affected channels, which is ~out_c times cheaper.
      bool has_input_transform_fault = false;
      for (const FaultSite& site : group) {
        has_input_transform_fault |=
            site.kind == OpKind::kAdd && site.op_index < layout.base_b;
      }
      if (has_input_transform_fault) {
        wg_tile_column(plan_, layout, desc, data, u_all, ty, tx, hook, out);
        continue;
      }
      FaultHookNone none;
      wg_tile_input_transform(plan_, layout, desc, data, ty, tx, none,
                              v_all.data());
      ocs.clear();
      for (const FaultSite& site : group) ocs.push_back(site_oc(site));
      std::sort(ocs.begin(), ocs.end());
      ocs.erase(std::unique(ocs.begin(), ocs.end()), ocs.end());
      for (const std::int64_t oc : ocs) {
        wg_tile_one_oc(plan_, layout, desc, data, u_all, v_all.data(), ty, tx,
                       oc, hook, out);
      }
    }
  });
}

}  // namespace winofault
