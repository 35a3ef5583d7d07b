#include "conv/op_count.h"

namespace winofault {

double winograd_mul_reduction(int m, const ConvDesc& desc) {
  const ConvEngine& wg = winograd_engine(m);
  if (!wg.supports(desc)) return 1.0;
  const OpSpace direct = direct_engine().op_space(desc, DType::kInt16);
  const OpSpace wino = wg.op_space(desc, DType::kInt16);
  if (wino.n_mul == 0) return 1.0;
  return static_cast<double>(direct.n_mul) / static_cast<double>(wino.n_mul);
}

}  // namespace winofault
