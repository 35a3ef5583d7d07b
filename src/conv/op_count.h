// Winograd's multiplication savings on one convolution layer, from the
// engines' own op spaces. Only conv_exactness_test calls it; the figure
// drivers take op counts from the Network's op spaces.
#pragma once

#include "conv/conv_desc.h"
#include "conv/engine.h"

namespace winofault {

// Multiplication-reduction factor of Winograd vs direct for this layer
// (e.g. 2.25 for F(2,3) on an even-tiled 3x3 layer).
double winograd_mul_reduction(int m, const ConvDesc& desc);

}  // namespace winofault
