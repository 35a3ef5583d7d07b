#include "conv/engine.h"

#include "common/logging.h"
#include "conv/direct_conv.h"
#include "conv/winograd_conv.h"

namespace winofault {

const char* conv_policy_name(ConvPolicy policy) {
  switch (policy) {
    case ConvPolicy::kDirect: return "ST-Conv";
    case ConvPolicy::kWinograd2: return "WG-Conv(F2)";
    case ConvPolicy::kWinograd4: return "WG-Conv(F4)";
  }
  return "?";
}

const ConvEngine& direct_engine() {
  static const DirectConvEngine engine;
  return engine;
}

const ConvEngine& winograd_engine(int m) {
  static const WinogradConvEngine f2(2);
  static const WinogradConvEngine f4(4);
  WF_CHECK(m == 2 || m == 4);
  return m == 2 ? f2 : f4;
}

const ConvEngine& select_engine(ConvPolicy policy, const ConvDesc& desc) {
  switch (policy) {
    case ConvPolicy::kDirect:
      return direct_engine();
    case ConvPolicy::kWinograd2:
      return winograd_engine(2).supports(desc) ? winograd_engine(2)
                                               : direct_engine();
    case ConvPolicy::kWinograd4:
      return winograd_engine(4).supports(desc) ? winograd_engine(4)
                                               : direct_engine();
  }
  return direct_engine();
}

}  // namespace winofault
