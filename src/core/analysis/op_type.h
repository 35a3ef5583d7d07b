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

struct OpTypeOptions {
  double ber = 0.0;
  ConvPolicy policy = ConvPolicy::kDirect;
  // Fault model (fault/models): defaults to WINOFAULT_FAULT_MODEL when
  // set, else the builtin flip@op. only_kind applies to op-datapath
  // models; weight/accum-target models ignore it (their cells are storage,
  // not mul/add ops).
  FaultModelSpec model = FaultModelSpec::process_default();
  std::uint64_t seed = 1;
  int threads = 0;
  int trials = 1;  // injection trials per (image, configuration) point
  StoreOptions store;  // persistent campaign store (campaign-level)
};

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

OpTypeResult op_type_sensitivity(const CampaignRunner& runner,
                                 const OpTypeOptions& options);

}  // namespace winofault
