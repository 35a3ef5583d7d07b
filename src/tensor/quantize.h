// Symmetric linear quantization (zero-point 0), the scheme the paper's
// fixed-point models imply. Quantized values are carried in int32 tensors
// regardless of nominal width; `DType` bounds are enforced at every
// requantization so int8 and int16 behave exactly like narrow registers.
#pragma once

#include <cmath>
#include <cstdint>

#include "tensor/dtype.h"
#include "tensor/tensor.h"

namespace winofault {

struct QuantParams {
  double scale = 1.0;  // real_value = scale * stored_integer
  DType dtype = DType::kInt16;

  bool operator==(const QuantParams&) const = default;
};

// Chooses a symmetric scale covering [-absmax, absmax] at full range.
QuantParams choose_quant_params(const TensorF& real, DType dtype);

// real -> fixed point (round-to-nearest, saturating).
TensorI32 quantize(const TensorF& real, const QuantParams& params);

// fixed point -> real.
TensorF dequantize(const TensorI32& stored, const QuantParams& params);

// Requantizes a wide accumulator value into `out_params`. `acc_scale` is the
// real-value scale of the accumulator (product of input scales for a conv).
// Implemented as double multiply + round + clamp; deterministic across
// engines, which is what makes direct and Winograd outputs bit-identical.
// Defined inline for per-element callers (fault sites, the instrumented
// reference); contiguous spans of accumulators go through the dispatched
// requantize_span (conv/gemm_kernel.h), which returns these exact bits.
inline std::int32_t requantize_value(std::int64_t acc, double acc_scale,
                                     const QuantParams& out_params) {
  const double real = static_cast<double>(acc) * acc_scale;
  const double stored = real / out_params.scale;
  return clamp_to(out_params.dtype,
                  static_cast<std::int64_t>(std::llround(stored)));
}

}  // namespace winofault
