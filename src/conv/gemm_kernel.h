// Explicit SIMD microkernels behind the direct engine's blocked int64 GEMM
// (gemm_acc in direct_conv.cpp), its delta replay (direct_delta_acc) and
// the requantization of their accumulators. One variant of each kernel per
// ISA level — scalar, AVX2, AVX-512 — selected once at startup from CPU
// capability, overridable via WINOFAULT_ISA for CI and via set_gemm_isa()
// for tests.
//
// Bit-identity contract: every variant computes, for each (row j, column
// e), the exact int64 sum  acc[j][e] += sum_r w[j][r] * col[r][e].
// Products are exact (int32 x int32 fits int64) and int64 addition of
// exact terms is associative and commutative, so any summation order —
// increasing r in the tile kernels, lane-strided r in the dot kernels —
// produces identical bits. The instrumented reference (direct_output_acc)
// stays the oracle for every dispatch level (tests/simd_kernel_test.cpp
// pins this under WINOFAULT_ISA forcing).
#pragma once

#include <cstdint>
#include <string>

#include "tensor/quantize.h"

namespace winofault {

enum class GemmIsa { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

const char* gemm_isa_name(GemmIsa isa);

// Highest ISA level this CPU can execute. The avx512 level needs AVX-512
// F, BW and DQ; a CPU with F alone runs avx2.
GemmIsa best_supported_gemm_isa();

// The dispatch level in effect: resolved once on first use to the best
// supported level, unless WINOFAULT_ISA ("scalar" | "avx2" | "avx512" |
// "native") overrides it. A request above the CPU's capability clamps down
// with a warning (so a CI matrix leg can export WINOFAULT_ISA=avx512
// everywhere and still run on AVX2-only machines).
GemmIsa active_gemm_isa();

// Forces the dispatch level (clamped to supported); returns the level
// actually installed. Test hook for the ISA exactness matrix — swap only
// between campaigns/forwards, not while GEMMs are in flight.
GemmIsa set_gemm_isa(GemmIsa isa);

// The microkernel: accumulates
//   acc[j*acc_stride + e] += sum_{r<window} w[j*w_stride + r] *
//                            col[r*col_stride + e]
// for j in [0, rows), e in [0, eb), exactly in int64. `rows` is at most 4
// (the register-tile height); callers block their output channels in fours.
void gemm_microkernel(std::int64_t* acc, std::int64_t acc_stride, int rows,
                      std::int64_t eb, const std::int32_t* col,
                      std::int64_t col_stride, const std::int32_t* w,
                      std::int64_t w_stride, std::int64_t window);

// Narrow-output companion: same accumulation for eb below the vector width
// (deep layers with 1x1/2x2 spatial extent), where gemm_microkernel would
// run scalar. Vectorizes over the window axis instead and reads the
// transposed column matrix, colT[e * window + r] == col[r][e]. The
// summation order over r differs, but int64 addition of exact terms is
// associative and commutative, so the accumulator bits are identical.
void gemm_microkernel_dot(std::int64_t* acc, std::int64_t acc_stride,
                          int rows, std::int64_t eb, const std::int32_t* colT,
                          const std::int32_t* w, std::int64_t w_stride,
                          std::int64_t window);

// One changed input element of a delta product: the first row ic*kh*kw of
// its input channel in the transposed weight matrix, and the input's change
// there, x' - x (|delta| <= 65535 for int16 operands, and <= 32767 when
// both are ReLU or pool outputs in [0, 32767]). No member initializers:
// direct_delta_acc allocates its term list uninitialized and reads only
// the terms its scan wrote.
struct DeltaTerm {
  std::int32_t row;
  std::int32_t delta;
};

// The changed elements an output position sees at one tap (ky, kx) of its
// window: terms[0, n), read in place from direct_delta_acc's per-position
// list. A term's weight row is terms[i].row + tap, where tap = ky*kw + kx,
// so the row is the window position r = (ic*kh + ky)*kw + kx.
struct DeltaSegment {
  const DeltaTerm* terms = nullptr;
  std::int64_t n = 0;
  std::int32_t tap = 0;
};

// Whether every delta of terms[0, n) fits int16, |delta| <= 32767: the
// precondition of delta_microkernel's pair kernels.
bool deltas_fit_int16(const DeltaTerm* terms, std::int64_t n);

// The delta kernel behind delta conv replay (direct_delta_acc in
// direct_conv.h): sets
//   acc[oc] = sum over segments s, i < s.n of
//             s.terms[i].delta * wt[(s.terms[i].row + s.tap) * out_c + oc]
// for oc in [0, out_c), exactly in int64, where `wt` is an int16 weight
// matrix transposed to [window][out_c]. Every ISA level gives the same
// bits. The vector levels multiply int16 pairs of terms (formed inside a
// segment; an odd segment's last term pairs with a zero delta) into int32
// lanes and widen them to int64 at the end of each run of pairs whose sum
// of |delta| stays <= 65535, which keeps every lane exact (|w| <= 32768);
// a run carries across the segments.
//
// Precondition: `narrow` is true only if every delta of every segment fits
// int16 (deltas_fit_int16); a wider one would wrap the pair kernels'
// lanes. A call with `narrow` false runs the scalar kernel at every level.
void delta_microkernel(std::int64_t* acc, std::int64_t out_c,
                       const DeltaSegment* segments, std::int64_t count,
                       const std::int16_t* wt, bool narrow);

// Requantizes n accumulators: out[i] = requantize_value(acc[i], acc_scale,
// out_quant), bit for bit at every ISA level. The AVX-512 kernel converts
// eight accumulators at a time with the same correctly rounded int64 to
// double conversion, multiply and divide as the scalar code, rounds half
// away from zero exactly and clamps; the AVX2 level runs the scalar kernel.
void requantize_span(const std::int64_t* acc, std::int64_t n,
                     double acc_scale, const QuantParams& out_quant,
                     std::int32_t* out);

}  // namespace winofault
