#include "conv/gemm_kernel.h"

#include <algorithm>
#include <atomic>
#include <mutex>

#include "common/env.h"
#include "common/logging.h"

#if defined(__x86_64__) && defined(__GNUC__)
#define WINOFAULT_X86_SIMD 1
#include <immintrin.h>
#else
#define WINOFAULT_X86_SIMD 0
#endif

namespace winofault {
namespace {

// Scalar kernel: the shape autovectorizers handle and the tail path of the
// vector kernels. The w == 0 skip only elides additions of zero, so it
// cannot change any accumulator bit.
void kernel_scalar(std::int64_t* acc, std::int64_t acc_stride, int rows,
                   std::int64_t eb, const std::int32_t* col,
                   std::int64_t col_stride, const std::int32_t* w,
                   std::int64_t w_stride, std::int64_t window) {
  for (std::int64_t r = 0; r < window; ++r) {
    const std::int32_t* col_row = col + r * col_stride;
    for (int j = 0; j < rows; ++j) {
      const std::int64_t wv = w[j * w_stride + r];
      if (wv == 0) continue;
      std::int64_t* a = acc + j * acc_stride;
      for (std::int64_t e = 0; e < eb; ++e) a[e] += wv * col_row[e];
    }
  }
}

#if WINOFAULT_X86_SIMD

// Exactness of the widening multiply: _mm256_cvtepi32_epi64 /
// _mm512_cvtepi32_epi64 sign-extend each int32 lane to int64 (the low 32
// bits keep the original two's-complement pattern), and *_mul_epi32
// multiplies the sign-extended LOW 32 bits of each 64-bit lane into an
// exact int64 product — precisely w * col with no truncation.

// AVX2 tile: 4 output rows x 8 columns of int64 accumulators live in 8 ymm
// registers across the whole window loop, so the inner loop streams only
// the column matrix.
__attribute__((target("avx2"))) void kernel_avx2(
    std::int64_t* acc, std::int64_t acc_stride, int rows, std::int64_t eb,
    const std::int32_t* col, std::int64_t col_stride, const std::int32_t* w,
    std::int64_t w_stride, std::int64_t window) {
  std::int64_t e0 = 0;
  if (rows == 4) {
    for (; e0 + 8 <= eb; e0 += 8) {
      __m256i a[4][2];
      for (int j = 0; j < 4; ++j) {
        std::int64_t* row = acc + j * acc_stride + e0;
        a[j][0] = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row));
        a[j][1] =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row + 4));
      }
      for (std::int64_t r = 0; r < window; ++r) {
        const std::int32_t* col_row = col + r * col_stride + e0;
        const __m256i c0 = _mm256_cvtepi32_epi64(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(col_row)));
        const __m256i c1 = _mm256_cvtepi32_epi64(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(col_row + 4)));
        for (int j = 0; j < 4; ++j) {
          const __m256i wv = _mm256_set1_epi64x(w[j * w_stride + r]);
          a[j][0] = _mm256_add_epi64(a[j][0], _mm256_mul_epi32(c0, wv));
          a[j][1] = _mm256_add_epi64(a[j][1], _mm256_mul_epi32(c1, wv));
        }
      }
      for (int j = 0; j < 4; ++j) {
        std::int64_t* row = acc + j * acc_stride + e0;
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(row), a[j][0]);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(row + 4), a[j][1]);
      }
    }
  }
  // Row groups under 4 and the sub-8 column tail: scalar, identical bits.
  if (e0 < eb) {
    kernel_scalar(acc + e0, acc_stride, rows, eb - e0, col + e0, col_stride,
                  w, w_stride, window);
  }
}

// AVX-512 tile: 4 rows x 16 columns in 8 zmm accumulator registers.
__attribute__((target("avx512f"))) void kernel_avx512(
    std::int64_t* acc, std::int64_t acc_stride, int rows, std::int64_t eb,
    const std::int32_t* col, std::int64_t col_stride, const std::int32_t* w,
    std::int64_t w_stride, std::int64_t window) {
  std::int64_t e0 = 0;
  if (rows == 4) {
    for (; e0 + 16 <= eb; e0 += 16) {
      __m512i a[4][2];
      for (int j = 0; j < 4; ++j) {
        std::int64_t* row = acc + j * acc_stride + e0;
        a[j][0] = _mm512_loadu_si512(row);
        a[j][1] = _mm512_loadu_si512(row + 8);
      }
      for (std::int64_t r = 0; r < window; ++r) {
        const std::int32_t* col_row = col + r * col_stride + e0;
        const __m512i c0 = _mm512_cvtepi32_epi64(
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(col_row)));
        const __m512i c1 = _mm512_cvtepi32_epi64(_mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(col_row + 8)));
        for (int j = 0; j < 4; ++j) {
          const __m512i wv = _mm512_set1_epi64(w[j * w_stride + r]);
          a[j][0] = _mm512_add_epi64(a[j][0], _mm512_mul_epi32(c0, wv));
          a[j][1] = _mm512_add_epi64(a[j][1], _mm512_mul_epi32(c1, wv));
        }
      }
      for (int j = 0; j < 4; ++j) {
        std::int64_t* row = acc + j * acc_stride + e0;
        _mm512_storeu_si512(row, a[j][0]);
        _mm512_storeu_si512(row + 8, a[j][1]);
      }
    }
  }
  if (e0 < eb) {
    kernel_scalar(acc + e0, acc_stride, rows, eb - e0, col + e0, col_stride,
                  w, w_stride, window);
  }
}

#endif  // WINOFAULT_X86_SIMD

// ---- Narrow-output (dot) variants ----
// When eb is below the vector width the tile kernels above degenerate to
// scalar, which is exactly the shape of a deep conv layer (2x2 or 1x1
// spatial extent, window in the thousands). These variants vectorize the
// reduction over the window axis instead, reading the TRANSPOSED column
// matrix (colT[e * window + r] == col[r * col_stride + e], both operands
// contiguous in r). int64 addition is associative and commutative and every
// term is exact, so the lane-strided summation order still produces the
// same bits as the increasing-r order.

void kernel_dot_scalar(std::int64_t* acc, std::int64_t acc_stride, int rows,
                       std::int64_t eb, const std::int32_t* colT,
                       const std::int32_t* w, std::int64_t w_stride,
                       std::int64_t window) {
  for (std::int64_t e = 0; e < eb; ++e) {
    const std::int32_t* ce = colT + e * window;
    for (int j = 0; j < rows; ++j) {
      const std::int32_t* wj = w + j * w_stride;
      std::int64_t s = 0;
      for (std::int64_t r = 0; r < window; ++r) {
        s += static_cast<std::int64_t>(wj[r]) * ce[r];
      }
      acc[j * acc_stride + e] += s;
    }
  }
}

#if WINOFAULT_X86_SIMD

__attribute__((target("avx2"))) void kernel_dot_avx2(
    std::int64_t* acc, std::int64_t acc_stride, int rows, std::int64_t eb,
    const std::int32_t* colT, const std::int32_t* w, std::int64_t w_stride,
    std::int64_t window) {
  for (std::int64_t e = 0; e < eb; ++e) {
    const std::int32_t* ce = colT + e * window;
    for (int j = 0; j < rows; ++j) {
      const std::int32_t* wj = w + j * w_stride;
      __m256i vsum = _mm256_setzero_si256();
      std::int64_t r = 0;
      for (; r + 4 <= window; r += 4) {
        const __m256i vc = _mm256_cvtepi32_epi64(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(ce + r)));
        const __m256i vw = _mm256_cvtepi32_epi64(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(wj + r)));
        vsum = _mm256_add_epi64(vsum, _mm256_mul_epi32(vc, vw));
      }
      const __m128i pair = _mm_add_epi64(_mm256_castsi256_si128(vsum),
                                         _mm256_extracti128_si256(vsum, 1));
      std::int64_t s = _mm_cvtsi128_si64(pair) + _mm_extract_epi64(pair, 1);
      for (; r < window; ++r) {
        s += static_cast<std::int64_t>(wj[r]) * ce[r];
      }
      acc[j * acc_stride + e] += s;
    }
  }
}

__attribute__((target("avx512f"))) void kernel_dot_avx512(
    std::int64_t* acc, std::int64_t acc_stride, int rows, std::int64_t eb,
    const std::int32_t* colT, const std::int32_t* w, std::int64_t w_stride,
    std::int64_t window) {
  for (std::int64_t e = 0; e < eb; ++e) {
    const std::int32_t* ce = colT + e * window;
    for (int j = 0; j < rows; ++j) {
      const std::int32_t* wj = w + j * w_stride;
      __m512i vsum = _mm512_setzero_si512();
      std::int64_t r = 0;
      for (; r + 8 <= window; r += 8) {
        const __m512i vc = _mm512_cvtepi32_epi64(
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ce + r)));
        const __m512i vw = _mm512_cvtepi32_epi64(
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(wj + r)));
        vsum = _mm512_add_epi64(vsum, _mm512_mul_epi32(vc, vw));
      }
      std::int64_t s = _mm512_reduce_add_epi64(vsum);
      for (; r < window; ++r) {
        s += static_cast<std::int64_t>(wj[r]) * ce[r];
      }
      acc[j * acc_stride + e] += s;
    }
  }
}

#endif  // WINOFAULT_X86_SIMD

// ---- Delta kernels ----
// acc[oc] = sum_i delta_i * wt[row_i * out_c + oc]. The vector variants
// block the output channels so a block's accumulators stay in registers
// across every term; each int16 weight is sign-extended to int64 and
// multiplied by the broadcast delta with *_mul_epi32, exact because both
// operands fit int32.

// Channels [oc0, oc1) of the delta product: the scalar kernel and the
// channel tail of the vector kernels.
void delta_channels_scalar(std::int64_t* acc, std::int64_t out_c,
                           std::int64_t oc0, std::int64_t oc1,
                           const DeltaTerm* terms, std::int64_t n,
                           const std::int16_t* wt) {
  std::fill(acc + oc0, acc + oc1, std::int64_t{0});
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int64_t d = terms[i].delta;
    const std::int16_t* w = wt + std::int64_t{terms[i].row} * out_c;
    for (std::int64_t oc = oc0; oc < oc1; ++oc) acc[oc] += d * w[oc];
  }
}

void kernel_delta_scalar(std::int64_t* acc, std::int64_t out_c,
                         const DeltaTerm* terms, std::int64_t n,
                         const std::int16_t* wt) {
  delta_channels_scalar(acc, out_c, 0, out_c, terms, n, wt);
}

#if WINOFAULT_X86_SIMD

// kRegs ymm registers of 4 int64 accumulators: channels [oc0, oc0+4*kRegs).
template <int kRegs>
__attribute__((target("avx2"))) void delta_block_avx2(
    std::int64_t* acc, std::int64_t out_c, std::int64_t oc0,
    const DeltaTerm* terms, std::int64_t n, const std::int16_t* wt) {
  __m256i a[kRegs];
  for (int j = 0; j < kRegs; ++j) a[j] = _mm256_setzero_si256();
  for (std::int64_t i = 0; i < n; ++i) {
    const __m256i d = _mm256_set1_epi64x(terms[i].delta);
    const std::int16_t* w = wt + std::int64_t{terms[i].row} * out_c + oc0;
    for (int j = 0; j < kRegs; ++j) {
      const __m256i wv = _mm256_cvtepi16_epi64(
          _mm_loadl_epi64(reinterpret_cast<const __m128i*>(w + 4 * j)));
      a[j] = _mm256_add_epi64(a[j], _mm256_mul_epi32(wv, d));
    }
  }
  for (int j = 0; j < kRegs; ++j) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + oc0 + 4 * j), a[j]);
  }
}

__attribute__((target("avx2"))) void kernel_delta_avx2(
    std::int64_t* acc, std::int64_t out_c, const DeltaTerm* terms,
    std::int64_t n, const std::int16_t* wt) {
  std::int64_t oc0 = 0;
  for (; oc0 + 32 <= out_c; oc0 += 32) {
    delta_block_avx2<8>(acc, out_c, oc0, terms, n, wt);
  }
  // The remaining whole registers in one pass over the terms.
  const std::int64_t regs = (out_c - oc0) / 4;
  switch (regs) {
    case 7: delta_block_avx2<7>(acc, out_c, oc0, terms, n, wt); break;
    case 6: delta_block_avx2<6>(acc, out_c, oc0, terms, n, wt); break;
    case 5: delta_block_avx2<5>(acc, out_c, oc0, terms, n, wt); break;
    case 4: delta_block_avx2<4>(acc, out_c, oc0, terms, n, wt); break;
    case 3: delta_block_avx2<3>(acc, out_c, oc0, terms, n, wt); break;
    case 2: delta_block_avx2<2>(acc, out_c, oc0, terms, n, wt); break;
    case 1: delta_block_avx2<1>(acc, out_c, oc0, terms, n, wt); break;
    default: break;
  }
  oc0 += regs * 4;
  if (oc0 < out_c) {
    delta_channels_scalar(acc, out_c, oc0, out_c, terms, n, wt);
  }
}

// kRegs zmm registers of 8 int64 accumulators: channels [oc0, oc0+8*kRegs).
template <int kRegs>
__attribute__((target("avx512f"))) void delta_block_avx512(
    std::int64_t* acc, std::int64_t out_c, std::int64_t oc0,
    const DeltaTerm* terms, std::int64_t n, const std::int16_t* wt) {
  __m512i a[kRegs];
  for (int j = 0; j < kRegs; ++j) a[j] = _mm512_setzero_si512();
  for (std::int64_t i = 0; i < n; ++i) {
    const __m512i d = _mm512_set1_epi64(terms[i].delta);
    const std::int16_t* w = wt + std::int64_t{terms[i].row} * out_c + oc0;
    for (int j = 0; j < kRegs; ++j) {
      const __m512i wv = _mm512_cvtepi16_epi64(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(w + 8 * j)));
      a[j] = _mm512_add_epi64(a[j], _mm512_mul_epi32(wv, d));
    }
  }
  for (int j = 0; j < kRegs; ++j) _mm512_storeu_si512(acc + oc0 + 8 * j, a[j]);
}

__attribute__((target("avx512f"))) void kernel_delta_avx512(
    std::int64_t* acc, std::int64_t out_c, const DeltaTerm* terms,
    std::int64_t n, const std::int16_t* wt) {
  std::int64_t oc0 = 0;
  for (; oc0 + 64 <= out_c; oc0 += 64) {
    delta_block_avx512<8>(acc, out_c, oc0, terms, n, wt);
  }
  const std::int64_t regs = (out_c - oc0) / 8;
  switch (regs) {
    case 7: delta_block_avx512<7>(acc, out_c, oc0, terms, n, wt); break;
    case 6: delta_block_avx512<6>(acc, out_c, oc0, terms, n, wt); break;
    case 5: delta_block_avx512<5>(acc, out_c, oc0, terms, n, wt); break;
    case 4: delta_block_avx512<4>(acc, out_c, oc0, terms, n, wt); break;
    case 3: delta_block_avx512<3>(acc, out_c, oc0, terms, n, wt); break;
    case 2: delta_block_avx512<2>(acc, out_c, oc0, terms, n, wt); break;
    case 1: delta_block_avx512<1>(acc, out_c, oc0, terms, n, wt); break;
    default: break;
  }
  oc0 += regs * 8;
  if (oc0 < out_c) {
    delta_channels_scalar(acc, out_c, oc0, out_c, terms, n, wt);
  }
}

#endif  // WINOFAULT_X86_SIMD

using KernelFn = void (*)(std::int64_t*, std::int64_t, int, std::int64_t,
                          const std::int32_t*, std::int64_t,
                          const std::int32_t*, std::int64_t, std::int64_t);
using DotKernelFn = void (*)(std::int64_t*, std::int64_t, int, std::int64_t,
                             const std::int32_t*, const std::int32_t*,
                             std::int64_t, std::int64_t);
using DeltaKernelFn = void (*)(std::int64_t*, std::int64_t,
                               const DeltaTerm*, std::int64_t,
                               const std::int16_t*);

KernelFn kernel_for(GemmIsa isa) {
#if WINOFAULT_X86_SIMD
  if (isa == GemmIsa::kAvx512) return kernel_avx512;
  if (isa == GemmIsa::kAvx2) return kernel_avx2;
#endif
  (void)isa;
  return kernel_scalar;
}

DotKernelFn dot_kernel_for(GemmIsa isa) {
#if WINOFAULT_X86_SIMD
  if (isa == GemmIsa::kAvx512) return kernel_dot_avx512;
  if (isa == GemmIsa::kAvx2) return kernel_dot_avx2;
#endif
  (void)isa;
  return kernel_dot_scalar;
}

DeltaKernelFn delta_kernel_for(GemmIsa isa) {
#if WINOFAULT_X86_SIMD
  if (isa == GemmIsa::kAvx512) return kernel_delta_avx512;
  if (isa == GemmIsa::kAvx2) return kernel_delta_avx2;
#endif
  (void)isa;
  return kernel_delta_scalar;
}

std::atomic<KernelFn> g_kernel{nullptr};
std::atomic<DotKernelFn> g_dot_kernel{nullptr};
std::atomic<DeltaKernelFn> g_delta_kernel{nullptr};
std::atomic<int> g_isa{static_cast<int>(GemmIsa::kScalar)};

GemmIsa clamp_to_supported(GemmIsa requested) {
  const GemmIsa best = best_supported_gemm_isa();
  if (requested <= best) return requested;
  WF_WARN << "gemm: requested ISA " << gemm_isa_name(requested)
          << " is not supported on this CPU; clamping to "
          << gemm_isa_name(best);
  return best;
}

void install(GemmIsa isa) {
  g_isa.store(static_cast<int>(isa), std::memory_order_relaxed);
  g_dot_kernel.store(dot_kernel_for(isa), std::memory_order_release);
  g_delta_kernel.store(delta_kernel_for(isa), std::memory_order_release);
  g_kernel.store(kernel_for(isa), std::memory_order_release);
}

void resolve_once() {
  static std::once_flag once;
  std::call_once(once, [] {
    GemmIsa isa = best_supported_gemm_isa();
    const std::string env = env_string("WINOFAULT_ISA", "");
    if (!env.empty() && env != "native" && env != "auto") {
      if (env == "scalar") {
        isa = GemmIsa::kScalar;
      } else if (env == "avx2") {
        isa = clamp_to_supported(GemmIsa::kAvx2);
      } else if (env == "avx512") {
        isa = clamp_to_supported(GemmIsa::kAvx512);
      } else {
        WF_WARN << "gemm: unknown WINOFAULT_ISA value \"" << env
                << "\" (want scalar|avx2|avx512|native); using "
                << gemm_isa_name(isa);
      }
    }
    install(isa);
  });
}

}  // namespace

const char* gemm_isa_name(GemmIsa isa) {
  switch (isa) {
    case GemmIsa::kScalar: return "scalar";
    case GemmIsa::kAvx2: return "avx2";
    case GemmIsa::kAvx512: return "avx512";
  }
  return "?";
}

GemmIsa best_supported_gemm_isa() {
#if WINOFAULT_X86_SIMD
  if (__builtin_cpu_supports("avx512f")) return GemmIsa::kAvx512;
  if (__builtin_cpu_supports("avx2")) return GemmIsa::kAvx2;
#endif
  return GemmIsa::kScalar;
}

GemmIsa active_gemm_isa() {
  resolve_once();
  return static_cast<GemmIsa>(g_isa.load(std::memory_order_relaxed));
}

GemmIsa set_gemm_isa(GemmIsa isa) {
  resolve_once();
  const GemmIsa clamped = clamp_to_supported(isa);
  install(clamped);
  return clamped;
}

void gemm_microkernel(std::int64_t* acc, std::int64_t acc_stride, int rows,
                      std::int64_t eb, const std::int32_t* col,
                      std::int64_t col_stride, const std::int32_t* w,
                      std::int64_t w_stride, std::int64_t window) {
  KernelFn fn = g_kernel.load(std::memory_order_acquire);
  if (fn == nullptr) {
    resolve_once();
    fn = g_kernel.load(std::memory_order_acquire);
  }
  fn(acc, acc_stride, rows, eb, col, col_stride, w, w_stride, window);
}

void gemm_microkernel_dot(std::int64_t* acc, std::int64_t acc_stride,
                          int rows, std::int64_t eb,
                          const std::int32_t* colT, const std::int32_t* w,
                          std::int64_t w_stride, std::int64_t window) {
  DotKernelFn fn = g_dot_kernel.load(std::memory_order_acquire);
  if (fn == nullptr) {
    resolve_once();
    fn = g_dot_kernel.load(std::memory_order_acquire);
  }
  fn(acc, acc_stride, rows, eb, colT, w, w_stride, window);
}

void delta_microkernel(std::int64_t* acc, std::int64_t out_c,
                       const DeltaTerm* terms, std::int64_t n,
                       const std::int16_t* wt) {
  DeltaKernelFn fn = g_delta_kernel.load(std::memory_order_acquire);
  if (fn == nullptr) {
    resolve_once();
    fn = g_delta_kernel.load(std::memory_order_acquire);
  }
  fn(acc, out_c, terms, n, wt);
}

}  // namespace winofault
