// Decomposable Winograd Method (DWM, Huang et al. AAAI'20, the paper's
// reference [11]): a 5x5 unit-stride convolution is split into four 3x3
// sub-kernels (the 5x5 kernel zero-padded to 6x6 and cut into a 2x2 grid of
// 3x3 blocks); each sub-kernel convolves a shifted copy of the input with
// F(m,3) Winograd, and the four accumulator-domain partial sums are merged
// before a single requantization — so the result is bit-identical to direct
// 5x5 convolution, preserving the paper's "no accuracy penalty" property.
//
// DWM is provided as an extension for golden execution and op accounting;
// only micro_kernels and dwm_test reach it. select_engine never picks it, so
// 5x5 layers run (and take faults) on the direct engine under every policy.
#pragma once

#include "conv/conv_desc.h"
#include "fault/op_space.h"
#include "tensor/tensor.h"

namespace winofault {

// True when DWM can run this geometry: 5x5 kernel, stride 1, pad >= 1.
bool dwm_supports(const ConvDesc& desc);

// Golden DWM forward; bit-identical to direct_engine().forward(desc, data).
TensorI32 dwm_forward(int m, const ConvDesc& desc, const ConvData& data);

// Runtime op space: four Winograd 3x3 sub-convolutions plus the merge adds
// (three accumulator merges per output element; bias counted once).
OpSpace dwm_op_space(int m, const ConvDesc& desc, DType dtype);

}  // namespace winofault
