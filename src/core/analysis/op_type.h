// Operation-type fault-tolerance analysis (paper Sec 3.2.4, Fig 4):
// accuracy when one op kind is kept fault-free. High "mul fault-free"
// accuracy means multiplications are the vulnerable operations and should
// be protected first — the priority rule of the TMR planner.
//
// The three configurations (all faulty, add-only, mul-only) run as one
// campaign on the caller's runner, over the goldens every other call on
// that runner shares.
#pragma once

#include "core/campaign/campaign.h"

namespace winofault {

struct OpTypeResult {
  double accuracy_all_faulty = 0.0;
  // Faults only in adds => multiplications fault-free ("X-Conv-Mul" curves).
  double accuracy_mul_fault_free = 0.0;
  // Faults only in muls => additions fault-free ("X-Conv-Add" curves).
  double accuracy_add_fault_free = 0.0;
  // Non-zero when a budgeted (cell_budget) run deferred cells: the
  // accuracies above are PARTIAL — mark downstream output and fail the
  // exit code instead of presenting them as finished.
  std::int64_t cells_deferred = 0;
};

// Runs copies of `base` that differ only in fault.only_kind, the axis this
// analysis owns: unset (all faulty), add, mul. Everything else is the
// caller's. only_kind applies to op-datapath models; weight/accum-target
// models ignore it (their cells are storage, not mul/add ops).
OpTypeResult op_type_sensitivity(const CampaignRunner& runner,
                                 const CampaignPoint& base,
                                 const StoreOptions& store = {});

}  // namespace winofault
