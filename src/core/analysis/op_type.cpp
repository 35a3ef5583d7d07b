#include "core/analysis/op_type.h"

namespace winofault {

OpTypeResult op_type_sensitivity(const CampaignRunner& runner,
                                 const OpTypeOptions& options) {
  CampaignPoint all;
  all.fault.ber = options.ber;
  all.fault.model = options.model;
  all.policy = options.policy;
  all.seed = options.seed;
  all.trials = options.trials;

  CampaignPoint add_only = all;  // muls fault-free
  add_only.fault.only_kind = OpKind::kAdd;

  CampaignPoint mul_only = all;  // adds fault-free
  mul_only.fault.only_kind = OpKind::kMul;

  CampaignSpec spec;
  spec.threads = options.threads;
  spec.store = options.store;
  spec.points = {all, add_only, mul_only};
  const CampaignResult campaign = runner.run(spec);

  OpTypeResult result;
  result.cells_deferred = campaign.stats.cells_deferred;
  result.accuracy_all_faulty = campaign.points[0].accuracy;
  result.accuracy_mul_fault_free = campaign.points[1].accuracy;
  result.accuracy_add_fault_free = campaign.points[2].accuracy;
  return result;
}

}  // namespace winofault
