// Descriptor and data bundle for one quantized 2-D convolution. Tensors are
// NCHW with batch 1 (fault statistics in this project are per-inference);
// values are stored in int32 but bounded by the nominal DType range, and
// accumulation is exact in int64.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/quantize.h"
#include "tensor/shape.h"
#include "tensor/tensor.h"

namespace winofault {

struct ConvDesc {
  std::int64_t in_c = 1;
  std::int64_t in_h = 1;
  std::int64_t in_w = 1;
  std::int64_t out_c = 1;
  std::int64_t kh = 3;
  std::int64_t kw = 3;
  std::int64_t stride = 1;
  std::int64_t pad = 1;
  bool has_bias = true;

  std::int64_t out_h() const { return conv_out_dim(in_h, kh, stride, pad); }
  std::int64_t out_w() const { return conv_out_dim(in_w, kw, stride, pad); }
  Shape in_shape() const { return Shape{1, in_c, in_h, in_w}; }
  Shape out_shape() const { return Shape{1, out_c, out_h(), out_w()}; }
  Shape weight_shape() const { return Shape{out_c, in_c, kh, kw}; }

  // Multiply-accumulates of the mathematical convolution (padding included,
  // as an im2col datapath would execute them).
  std::int64_t macs() const {
    return out_c * out_h() * out_w() * in_c * kh * kw;
  }

  bool operator==(const ConvDesc&) const = default;
};

// Borrowed views over one layer's quantized operands; the caller keeps the
// referenced tensors alive for the duration of the engine call.
struct ConvData {
  const TensorI32* input = nullptr;    // [1, in_c, in_h, in_w]
  const TensorI32* weights = nullptr;  // [out_c, in_c, kh, kw]
  // Bias in accumulator units (scale = in_scale * w_scale); size out_c.
  const std::vector<std::int64_t>* bias = nullptr;
  DType dtype = DType::kInt16;
  double acc_scale = 1.0;  // real value of one accumulator unit
  QuantParams out_quant;   // requantization target for the layer output

  // Optional precomputed Winograd filter banks (transform_filters output
  // for m = 2 / 4). Weights are static per layer, so ConvLayer caches
  // them across forwards, narrowed to int32 (|U| < 2^31 for both plans:
  // half the bytes); the int64 ones serve callers holding
  // transform_filters' own result. The engine uses an int32 bank when set,
  // else an int64 one, else transforms on the fly.
  const std::vector<std::int64_t>* wg_bank_f2 = nullptr;
  const std::vector<std::int64_t>* wg_bank_f4 = nullptr;
  const std::vector<std::int32_t>* wg_bank32_f2 = nullptr;
  const std::vector<std::int32_t>* wg_bank32_f4 = nullptr;
};

}  // namespace winofault
