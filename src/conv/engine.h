// Abstract convolution engine: golden forward, op-space declaration, and
// exact fault replay. Engines are stateless singletons; all per-layer state
// travels in ConvDesc/ConvData.
#pragma once

#include <span>

#include "conv/conv_desc.h"
#include "fault/op_space.h"

namespace winofault {

class ConvEngine {
 public:
  virtual ~ConvEngine() = default;

  virtual const char* name() const = 0;

  // Whether this engine can execute the given geometry.
  virtual bool supports(const ConvDesc& desc) const = 0;

  // The layer's primitive-operation space (counts + fault-surface widths).
  virtual OpSpace op_space(const ConvDesc& desc, DType dtype) const = 0;

  // Fault-free execution.
  virtual TensorI32 forward(const ConvDesc& desc,
                            const ConvData& data) const = 0;

  // Applies `sites` to a golden output `out` (produced by forward() on the
  // same desc/data) by recomputing exactly the affected output units with
  // the flips active. Bit-identical to executing the whole layer with every
  // op instrumented (see instrumented_ref.h, validated in tests).
  virtual void apply_faults(const ConvDesc& desc, const ConvData& data,
                            std::span<const FaultSite> sites,
                            TensorI32& out) const = 0;
};

// How a network chooses engines per layer. Winograd policies fall back to
// the direct engine for geometries Winograd does not support (non-3x3 or
// strided kernels), as production libraries do.
enum class ConvPolicy { kDirect, kWinograd2, kWinograd4 };

const char* conv_policy_name(ConvPolicy policy);

// Returns the engine a policy uses for `desc` (never null).
const ConvEngine& select_engine(ConvPolicy policy, const ConvDesc& desc);

// Singleton engine accessors.
const ConvEngine& direct_engine();
const ConvEngine& winograd_engine(int m);  // m = 2 or 4

}  // namespace winofault
