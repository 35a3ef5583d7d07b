#include "core/analysis/op_type.h"

namespace winofault {

OpTypeResult op_type_sensitivity(const CampaignRunner& runner,
                                 const CampaignPoint& base,
                                 const StoreOptions& store) {
  CampaignSpec spec;
  spec.store = store;
  // All faulty, then faults only in adds (muls fault-free), then only in
  // muls (adds fault-free).
  const std::optional<OpKind> kinds[] = {std::nullopt, OpKind::kAdd,
                                         OpKind::kMul};
  for (const std::optional<OpKind>& kind : kinds) {
    CampaignPoint point = base;
    point.fault.only_kind = kind;
    spec.points.push_back(std::move(point));
  }
  const CampaignResult campaign = runner.run(spec);

  OpTypeResult result;
  result.cells_deferred = campaign.stats.cells_deferred;
  result.accuracy_all_faulty = campaign.points[0].accuracy;
  result.accuracy_mul_fault_free = campaign.points[1].accuracy;
  result.accuracy_add_fault_free = campaign.points[2].accuracy;
  return result;
}

}  // namespace winofault
