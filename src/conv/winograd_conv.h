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
//
// The engine runs one tile routine (winograd_conv.cpp) for forward and
// apply_faults: hook-free constant transforms, plain channel sums between
// the input channels that carry a site, and a fault applied only at the
// ops a site names. The per-op hooked tile in canonical op order is the
// oracle, winograd_forward_instrumented (conv/instrumented_ref.cpp); it
// shares only transform_two_pass, WgLayout and div_round_nearest with the
// engine.
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

}  // namespace winofault
