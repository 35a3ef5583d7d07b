// Operation hooks for the per-op reference loops (direct_output_acc and
// the instrumented Winograd tile, conv/instrumented_ref.h). FaultHookNone
// inlines to nothing (ABFT's checksum recompute uses it); SiteFilterHook
// applies every scheduled fault whose (kind, op_index) matches the
// operation being executed, and is the oracle replay is checked against.
// Replay itself (the engines' apply_faults) does not route each op through
// a hook: it runs plain arithmetic between the scheduled sites and applies
// a fault only at the ops that carry one.
#pragma once

#include <cstdint>
#include <span>

#include "fault/bitflip.h"
#include "fault/op_space.h"

namespace winofault {

struct FaultHookNone {
  std::int64_t operator()(OpKind, std::int64_t, std::int64_t value,
                          std::int64_t) const {
    return value;
  }
};

class SiteFilterHook {
 public:
  explicit SiteFilterHook(std::span<const FaultSite> sites) : sites_(sites) {}

  std::int64_t operator()(OpKind kind, std::int64_t op_index,
                          std::int64_t value, std::int64_t scale) const {
    // Multiple sites can hit one op (vanishingly rare); they apply in
    // schedule order, mirroring successive upsets in one register.
    for (const FaultSite& site : sites_) {
      if (site.kind == kind && site.op_index == op_index) {
        value = apply_op_fault(value, site.bit, scale);
      }
    }
    return value;
  }

 private:
  std::span<const FaultSite> sites_;
};

}  // namespace winofault
