#include "conv/gemm_kernel.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
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
// acc[oc] = sum over segments s, i < s.n of
//           s.terms[i].delta * wt[(s.terms[i].row + s.tap) * out_c + oc].

// Channels [oc0, oc1) of the delta product in plain int64: the scalar
// kernel (the reference) and the channel tail of the vector kernels.
void delta_channels_scalar(std::int64_t* acc, std::int64_t out_c,
                           std::int64_t oc0, std::int64_t oc1,
                           const DeltaSegment* segments, std::int64_t count,
                           const std::int16_t* wt) {
  std::fill(acc + oc0, acc + oc1, std::int64_t{0});
  for (std::int64_t s = 0; s < count; ++s) {
    const DeltaTerm* terms = segments[s].terms;
    const std::int16_t* wt_tap = wt + std::int64_t{segments[s].tap} * out_c;
    for (std::int64_t i = 0; i < segments[s].n; ++i) {
      const std::int64_t d = terms[i].delta;
      const std::int16_t* w = wt_tap + std::int64_t{terms[i].row} * out_c;
      for (std::int64_t oc = oc0; oc < oc1; ++oc) acc[oc] += d * w[oc];
    }
  }
}

void kernel_delta_scalar(std::int64_t* acc, std::int64_t out_c,
                         const DeltaSegment* segments, std::int64_t count,
                         const std::int16_t* wt) {
  delta_channels_scalar(acc, out_c, 0, out_c, segments, count, wt);
}

// The widest |delta| the pair kernels' int16 lanes hold.
constexpr std::int32_t kNarrowDelta = 32767;

#if WINOFAULT_X86_SIMD

// The pair kernels take the terms of a segment two at a time. The two
// weight rows are interleaved with unpacklo/unpackhi_epi16 and multiplied
// by the broadcast int16 pair (delta_a, delta_b) with madd_epi16, which
// sums each pair of products exactly into an int32 lane: |delta| <= 32767
// (the caller's precondition), so the one case that wraps, (-32768)^2
// twice, cannot occur. A run is a sequence of consecutive pairs, across
// the segments, whose sum of |delta| is at most kRunBudget. Every |w| <=
// 32768, so each int32 lane of a run stays within 65535 * 32768 < 2^31
// and accumulates exactly; at the end of a run the lanes are widened and
// added into the int64 accumulators, whose sums do not depend on order.
// One pair adds at most 2 * 32767, so every run holds a pair. An odd
// segment's last term pairs with a zero delta on its own row, which adds
// exactly 0.
constexpr std::int32_t kRunBudget = 65535;

// The terms at i and i + 1 of a segment as one pair.
struct DeltaPair {
  std::int64_t row_a = 0, row_b = 0;
  std::int32_t deltas = 0;     // delta_a in the low int16, delta_b high
  std::int32_t magnitude = 0;  // |delta_a| + |delta_b|
};

inline DeltaPair delta_pair(const DeltaTerm* terms, std::int64_t n,
                            std::int64_t i) {
  const DeltaTerm a = terms[i];
  const DeltaTerm b = i + 1 < n ? terms[i + 1] : DeltaTerm{a.row, 0};
  return DeltaPair{
      a.row, b.row,
      static_cast<std::int32_t>((static_cast<std::uint32_t>(a.delta) &
                                 0xFFFFu) |
                                (static_cast<std::uint32_t>(b.delta) << 16)),
      std::abs(a.delta) + std::abs(b.delta)};
}

// dst[0, 4) += the four int32 lanes, sign-extended.
__attribute__((target("avx2"))) inline void widen_add(std::int64_t* dst,
                                                      __m128i lanes) {
  __m256i* d = reinterpret_cast<__m256i*>(dst);
  _mm256_storeu_si256(d, _mm256_add_epi64(_mm256_loadu_si256(d),
                                          _mm256_cvtepi32_epi64(lanes)));
}

// Ends a run of ymm groups of 16 channels: adds each group's int32 pair
// sums into acc[16g, 16g + 16) as int64 and clears them. The unpacks leave
// 128-bit lane k of `lo` holding channels 8k..8k+3 and of `hi` channels
// 8k+4..8k+7; each lane is widened into its own channels.
template <int kGroups>
__attribute__((target("avx2"))) inline void end_run_avx2(
    std::int64_t* acc, __m256i (&lo)[kGroups], __m256i (&hi)[kGroups]) {
  for (int g = 0; g < kGroups; ++g) {
    widen_add(acc + 16 * g, _mm256_castsi256_si128(lo[g]));
    widen_add(acc + 16 * g + 4, _mm256_castsi256_si128(hi[g]));
    widen_add(acc + 16 * g + 8, _mm256_extracti128_si256(lo[g], 1));
    widen_add(acc + 16 * g + 12, _mm256_extracti128_si256(hi[g], 1));
    lo[g] = hi[g] = _mm256_setzero_si256();
  }
}

// One pass over the segments for channels [oc0, oc0 + 16 * kGroups),
// added into acc.
template <int kGroups>
__attribute__((target("avx2"))) void delta_pass_avx2(
    std::int64_t* acc, std::int64_t out_c, std::int64_t oc0,
    const DeltaSegment* segments, std::int64_t count,
    const std::int16_t* wt) {
  __m256i lo[kGroups], hi[kGroups];
  for (int g = 0; g < kGroups; ++g) lo[g] = hi[g] = _mm256_setzero_si256();
  std::int32_t run = 0;  // sum of |delta| over the open run
  for (std::int64_t s = 0; s < count; ++s) {
    const DeltaTerm* terms = segments[s].terms;
    const std::int64_t n = segments[s].n;
    const std::int16_t* w =
        wt + std::int64_t{segments[s].tap} * out_c + oc0;
    for (std::int64_t i = 0; i < n; i += 2) {
      const DeltaPair p = delta_pair(terms, n, i);
      if (run + p.magnitude > kRunBudget) {
        end_run_avx2(acc + oc0, lo, hi);
        run = 0;
      }
      run += p.magnitude;
      const __m256i d = _mm256_set1_epi32(p.deltas);
      const std::int16_t* wa = w + p.row_a * out_c;
      const std::int16_t* wb = w + p.row_b * out_c;
      for (int g = 0; g < kGroups; ++g) {
        const __m256i va = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(wa + 16 * g));
        const __m256i vb = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(wb + 16 * g));
        lo[g] = _mm256_add_epi32(
            lo[g], _mm256_madd_epi16(_mm256_unpacklo_epi16(va, vb), d));
        hi[g] = _mm256_add_epi32(
            hi[g], _mm256_madd_epi16(_mm256_unpackhi_epi16(va, vb), d));
      }
    }
  }
  end_run_avx2(acc + oc0, lo, hi);
}

// 64 channels (4 ymm groups) per pass over the segments, then the
// remaining whole groups in one pass; fewer than 16 leftover channels run
// scalar.
__attribute__((target("avx2"))) void kernel_delta_avx2(
    std::int64_t* acc, std::int64_t out_c, const DeltaSegment* segments,
    std::int64_t count, const std::int16_t* wt) {
  std::fill(acc, acc + out_c, std::int64_t{0});
  std::int64_t oc0 = 0;
  for (; oc0 + 64 <= out_c; oc0 += 64) {
    delta_pass_avx2<4>(acc, out_c, oc0, segments, count, wt);
  }
  const std::int64_t groups = (out_c - oc0) / 16;
  if (groups == 3) delta_pass_avx2<3>(acc, out_c, oc0, segments, count, wt);
  if (groups == 2) delta_pass_avx2<2>(acc, out_c, oc0, segments, count, wt);
  if (groups == 1) delta_pass_avx2<1>(acc, out_c, oc0, segments, count, wt);
  oc0 += groups * 16;
  if (oc0 < out_c) {
    delta_channels_scalar(acc, out_c, oc0, out_c, segments, count, wt);
  }
}

// dst[0, 8) += the eight int32 lanes, sign-extended.
__attribute__((target("avx512f"))) inline void widen_add(std::int64_t* dst,
                                                         __m256i lanes) {
  _mm512_storeu_si512(dst, _mm512_add_epi64(_mm512_loadu_si512(dst),
                                            _mm512_cvtepi32_epi64(lanes)));
}

// Ends a run of zmm groups of 32 channels, as end_run_avx2 does: lane k of
// `lo` holds channels 8k..8k+3 and of `hi` 8k+4..8k+7, so two permutes
// restore channel order before the widening.
template <int kGroups>
__attribute__((target("avx512f"))) inline void end_run_avx512(
    std::int64_t* acc, __m512i (&lo)[kGroups], __m512i (&hi)[kGroups]) {
  const __m512i first = _mm512_setr_epi32(0, 1, 2, 3, 16, 17, 18, 19, 4, 5,
                                          6, 7, 20, 21, 22, 23);
  const __m512i second = _mm512_setr_epi32(8, 9, 10, 11, 24, 25, 26, 27, 12,
                                           13, 14, 15, 28, 29, 30, 31);
  for (int g = 0; g < kGroups; ++g) {
    const __m512i c0 = _mm512_permutex2var_epi32(lo[g], first, hi[g]);
    const __m512i c1 = _mm512_permutex2var_epi32(lo[g], second, hi[g]);
    widen_add(acc + 32 * g, _mm512_castsi512_si256(c0));
    widen_add(acc + 32 * g + 8, _mm512_extracti64x4_epi64(c0, 1));
    widen_add(acc + 32 * g + 16, _mm512_castsi512_si256(c1));
    widen_add(acc + 32 * g + 24, _mm512_extracti64x4_epi64(c1, 1));
    lo[g] = hi[g] = _mm512_setzero_si512();
  }
}

// One pass over the segments for channels [oc0, oc0 + 32 * kGroups),
// added into acc.
template <int kGroups>
__attribute__((target("avx512f,avx512bw"))) void delta_pass_avx512(
    std::int64_t* acc, std::int64_t out_c, std::int64_t oc0,
    const DeltaSegment* segments, std::int64_t count,
    const std::int16_t* wt) {
  __m512i lo[kGroups], hi[kGroups];
  for (int g = 0; g < kGroups; ++g) lo[g] = hi[g] = _mm512_setzero_si512();
  std::int32_t run = 0;  // sum of |delta| over the open run
  for (std::int64_t s = 0; s < count; ++s) {
    const DeltaTerm* terms = segments[s].terms;
    const std::int64_t n = segments[s].n;
    const std::int16_t* w =
        wt + std::int64_t{segments[s].tap} * out_c + oc0;
    for (std::int64_t i = 0; i < n; i += 2) {
      const DeltaPair p = delta_pair(terms, n, i);
      if (run + p.magnitude > kRunBudget) {
        end_run_avx512(acc + oc0, lo, hi);
        run = 0;
      }
      run += p.magnitude;
      const __m512i d = _mm512_set1_epi32(p.deltas);
      const std::int16_t* wa = w + p.row_a * out_c;
      const std::int16_t* wb = w + p.row_b * out_c;
      for (int g = 0; g < kGroups; ++g) {
        const __m512i va = _mm512_loadu_si512(wa + 32 * g);
        const __m512i vb = _mm512_loadu_si512(wb + 32 * g);
        lo[g] = _mm512_add_epi32(
            lo[g], _mm512_madd_epi16(_mm512_unpacklo_epi16(va, vb), d));
        hi[g] = _mm512_add_epi32(
            hi[g], _mm512_madd_epi16(_mm512_unpackhi_epi16(va, vb), d));
      }
    }
  }
  end_run_avx512(acc + oc0, lo, hi);
}

// 128 channels (4 zmm groups) per pass over the segments, then the
// remaining whole zmm groups in one pass and a 16-channel ymm group; fewer
// than 16 leftover channels run scalar.
__attribute__((target("avx512f,avx512bw"))) void kernel_delta_avx512(
    std::int64_t* acc, std::int64_t out_c, const DeltaSegment* segments,
    std::int64_t count, const std::int16_t* wt) {
  std::fill(acc, acc + out_c, std::int64_t{0});
  std::int64_t oc0 = 0;
  for (; oc0 + 128 <= out_c; oc0 += 128) {
    delta_pass_avx512<4>(acc, out_c, oc0, segments, count, wt);
  }
  const std::int64_t groups = (out_c - oc0) / 32;
  if (groups == 3) delta_pass_avx512<3>(acc, out_c, oc0, segments, count, wt);
  if (groups == 2) delta_pass_avx512<2>(acc, out_c, oc0, segments, count, wt);
  if (groups == 1) delta_pass_avx512<1>(acc, out_c, oc0, segments, count, wt);
  oc0 += groups * 32;
  if (oc0 + 16 <= out_c) {
    delta_pass_avx2<1>(acc, out_c, oc0, segments, count, wt);
    oc0 += 16;
  }
  if (oc0 < out_c) {
    delta_channels_scalar(acc, out_c, oc0, out_c, segments, count, wt);
  }
}

#endif  // WINOFAULT_X86_SIMD

// ---- Requantize kernels ----

void requantize_scalar(const std::int64_t* acc, std::int64_t n,
                       double acc_scale, const QuantParams& out_quant,
                       std::int32_t* out) {
  // A local copy, which the llround call cannot clobber, so the loop does
  // not reload the parameters for every element.
  const QuantParams quant = out_quant;
  for (std::int64_t i = 0; i < n; ++i) {
    out[i] = requantize_value(acc[i], acc_scale, quant);
  }
}

#if WINOFAULT_X86_SIMD

// requantize_value on eight lanes at a time. The int64 to double
// conversion, the multiply and the divide are correctly rounded in vector
// and scalar units alike, and stay two operations, as in the scalar code.
// Round half away from zero is t = trunc(x), plus sign(x) where |x - t| >=
// 0.5: x - t is exact, and so is t + 1, since x has a fraction only below
// 2^52 (adding 0.5 before truncating is not: 0.49999999999999994 + 0.5
// rounds to 1). Below 2^63 in magnitude, clamping the integral double to
// the dtype range equals clamping llround's integer. At or above it, and
// for NaN, x86 llround returns INT64_MIN, which clamps to the dtype
// minimum, and so does this kernel. AVX2 has no int64 to double
// conversion, so the avx2 level runs the scalar kernel.
__attribute__((target("avx512f,avx512dq"))) void requantize_avx512(
    const std::int64_t* acc, std::int64_t n, double acc_scale,
    const QuantParams& out_quant, std::int32_t* out) {
  const __m512d scale = _mm512_set1_pd(acc_scale);
  const __m512d out_scale = _mm512_set1_pd(out_quant.scale);
  const __m512d lo = _mm512_set1_pd(dtype_min(out_quant.dtype));
  const __m512d hi = _mm512_set1_pd(dtype_max(out_quant.dtype));
  const __m512d half = _mm512_set1_pd(0.5);
  const __m512d one = _mm512_set1_pd(1.0);
  const __m512d sign_bit = _mm512_set1_pd(-0.0);
  const __m512d limit = _mm512_set1_pd(0x1p63);
  for (std::int64_t i = 0; i < n; i += 8) {
    const __mmask8 lanes =
        n - i >= 8 ? 0xFF : static_cast<__mmask8>((1u << (n - i)) - 1);
    const __m512d real = _mm512_mul_pd(
        _mm512_cvtepi64_pd(_mm512_maskz_loadu_epi64(lanes, acc + i)), scale);
    const __m512d x = _mm512_div_pd(real, out_scale);
    const __m512d t =
        _mm512_roundscale_pd(x, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
    const __mmask8 away = _mm512_cmp_pd_mask(
        _mm512_abs_pd(_mm512_sub_pd(x, t)), half, _CMP_GE_OQ);
    const __m512d r = _mm512_mask_add_pd(
        t, away, t, _mm512_or_pd(one, _mm512_and_pd(x, sign_bit)));
    const __mmask8 in_range =
        _mm512_cmp_pd_mask(_mm512_abs_pd(r), limit, _CMP_LT_OQ);
    const __m512d clamped = _mm512_mask_blend_pd(
        in_range, lo, _mm512_min_pd(_mm512_max_pd(r, lo), hi));
    _mm512_mask_storeu_epi32(out + i, lanes,
                             _mm512_castsi256_si512(
                                 _mm512_cvtpd_epi32(clamped)));
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
                               const DeltaSegment*, std::int64_t,
                               const std::int16_t*);
using RequantizeFn = void (*)(const std::int64_t*, std::int64_t, double,
                              const QuantParams&, std::int32_t*);

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

RequantizeFn requantize_kernel_for(GemmIsa isa) {
#if WINOFAULT_X86_SIMD
  if (isa == GemmIsa::kAvx512) return requantize_avx512;
#endif
  (void)isa;
  return requantize_scalar;
}

std::atomic<KernelFn> g_kernel{nullptr};
std::atomic<DotKernelFn> g_dot_kernel{nullptr};
std::atomic<DeltaKernelFn> g_delta_kernel{nullptr};
std::atomic<RequantizeFn> g_requantize{nullptr};
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
  g_requantize.store(requantize_kernel_for(isa), std::memory_order_release);
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
  if (__builtin_cpu_supports("avx512f") &&
      __builtin_cpu_supports("avx512bw") &&
      __builtin_cpu_supports("avx512dq")) {
    return GemmIsa::kAvx512;
  }
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

bool deltas_fit_int16(const DeltaTerm* terms, std::int64_t n) {
  bool fit = true;
  for (std::int64_t i = 0; i < n; ++i) {
    fit &= terms[i].delta >= -kNarrowDelta && terms[i].delta <= kNarrowDelta;
  }
  return fit;
}

void delta_microkernel(std::int64_t* acc, std::int64_t out_c,
                       const DeltaSegment* segments, std::int64_t count,
                       const std::int16_t* wt, bool narrow) {
  DeltaKernelFn fn = kernel_delta_scalar;
  if (narrow) {
    fn = g_delta_kernel.load(std::memory_order_acquire);
    if (fn == nullptr) {
      resolve_once();
      fn = g_delta_kernel.load(std::memory_order_acquire);
    }
  }
  fn(acc, out_c, segments, count, wt);
}

void requantize_span(const std::int64_t* acc, std::int64_t n,
                     double acc_scale, const QuantParams& out_quant,
                     std::int32_t* out) {
  RequantizeFn fn = g_requantize.load(std::memory_order_acquire);
  if (fn == nullptr) {
    resolve_once();
    fn = g_requantize.load(std::memory_order_acquire);
  }
  fn(acc, n, acc_scale, out_quant, out);
}

}  // namespace winofault
