// Shared helpers for the test suites: random quantized conv problems,
// tensor comparison utilities, the byte mutator of the parser mutation
// tests, and a writer of the older cost-ledgered journal format.
#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "conv/conv_desc.h"
#include "core/store/journal.h"
#include "tensor/quantize.h"
#include "tensor/tensor.h"

namespace winofault::testing {

// Owning bundle behind a ConvData (which only holds pointers).
struct ConvProblem {
  ConvDesc desc;
  TensorI32 input;
  TensorI32 weights;
  std::vector<std::int64_t> bias;
  double acc_scale = 1.0;
  QuantParams out_quant;
  DType dtype = DType::kInt16;

  ConvData data() const {
    ConvData d;
    d.input = &input;
    d.weights = &weights;
    d.bias = desc.has_bias ? &bias : nullptr;
    d.dtype = dtype;
    d.acc_scale = acc_scale;
    d.out_quant = out_quant;
    return d;
  }
};

// Random problem with values spanning the dtype's range (stress-tests the
// integer transforms) and a requantization that keeps most outputs
// unsaturated.
inline ConvProblem make_problem(Rng& rng, const ConvDesc& desc,
                                DType dtype = DType::kInt16) {
  ConvProblem p;
  p.desc = desc;
  p.dtype = dtype;
  p.input = TensorI32(desc.in_shape());
  p.weights = TensorI32(desc.weight_shape());
  const std::int64_t lo = dtype_min(dtype), hi = dtype_max(dtype);
  for (auto& v : p.input.flat())
    v = static_cast<std::int32_t>(
        lo + static_cast<std::int64_t>(rng.next_below(
                 static_cast<std::uint64_t>(hi - lo + 1))));
  for (auto& v : p.weights.flat())
    v = static_cast<std::int32_t>(
        lo + static_cast<std::int64_t>(rng.next_below(
                 static_cast<std::uint64_t>(hi - lo + 1))));
  p.bias.resize(static_cast<std::size_t>(desc.out_c));
  for (auto& b : p.bias)
    b = static_cast<std::int64_t>(rng.next_below(20001)) - 10000;
  p.acc_scale = 1.0 / 4096.0;
  p.out_quant.dtype = dtype;
  // Scale so a typical accumulator lands mid-range.
  const double acc_mag = std::sqrt(static_cast<double>(desc.in_c * 9)) *
                         static_cast<double>(hi) * static_cast<double>(hi) *
                         0.5;
  p.out_quant.scale = acc_mag * p.acc_scale / static_cast<double>(hi);
  return p;
}

inline void expect_tensors_equal(const TensorI32& a, const TensorI32& b,
                                 const char* what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    ASSERT_EQ(a[i], b[i]) << what << " differs at flat index " << i;
  }
}

inline std::int64_t count_diffs(const TensorI32& a, const TensorI32& b) {
  std::int64_t diffs = 0;
  for (std::int64_t i = 0; i < a.numel(); ++i) diffs += a[i] != b[i];
  return diffs;
}

// One seeded mutant of `text` for the parser mutation tests. `kind` 0
// flips 1-4 bytes (one random bit or the whole byte each), 1 truncates, 2
// splices a slice of a random donor over a slice of `text`. The mutant is
// a pure function of (text, kind, donors, rng state).
inline std::string mutate_bytes(std::string text, std::uint64_t kind,
                                const std::vector<std::string>& donors,
                                Rng& rng) {
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng.next_below(n == 0 ? 1 : n));
  };
  switch (kind) {
    case 0: {
      const std::size_t flips = 1 + pick(4);
      for (std::size_t f = 0; f < flips && !text.empty(); ++f) {
        const std::size_t at = pick(text.size());
        if (rng.next_below(2) == 0) {
          text[at] = static_cast<char>(text[at] ^ (1 << pick(8)));
        } else {
          text[at] = static_cast<char>(rng.next_below(256));
        }
      }
      break;
    }
    case 1:
      text.resize(pick(text.size() + 1));
      break;
    default: {
      const std::string& donor = donors[pick(donors.size())];
      const std::size_t from = pick(donor.size());
      const std::string slice = donor.substr(from, pick(64) + 1);
      const std::size_t at = pick(text.size() + 1);
      text.replace(at, pick(16), slice);
      break;
    }
  }
  return text;
}

// Bytes of a journal in the format stores wrote while they kept a per-cell
// cost ledger: the 16-byte header (magic "WJLF" v1, env_hash), then for
// each cell its 40-byte record followed by a cost record. Both records are
// five native-endian u64 words, the last an FNV-1a CRC over the env word
// and the four fields; a cost record carries (point_hash, image, wall_us,
// flips_sq) and hashes env_hash ^ "WFCTCOST" instead of env_hash. Built
// here byte by byte, independently of the library's writer.
inline std::string ledgered_journal(std::uint64_t env_hash,
                                    const std::vector<JournalCell>& cells) {
  std::string bytes;
  const auto put = [&](std::uint64_t word) {
    bytes.append(reinterpret_cast<const char*>(&word), sizeof(word));
  };
  const auto put_record = [&](std::uint64_t domain, std::uint64_t a,
                              std::uint64_t b, std::uint64_t c,
                              std::uint64_t d) {
    for (const std::uint64_t word : {a, b, c, d}) put(word);
    put(Fnv64().u64(domain).u64(a).u64(b).u64(c).u64(d).digest());
  };
  put(0x574a4c4600000001ULL);
  put(env_hash);
  for (const JournalCell& cell : cells) {
    const auto image = static_cast<std::uint64_t>(cell.image);
    const auto flips = static_cast<std::uint64_t>(cell.flips);
    put_record(env_hash, cell.point_hash, image,
               static_cast<std::uint64_t>(cell.correct), flips);
    put_record(env_hash ^ 0x57464354434f5354ULL, cell.point_hash, image,
               1000 + image, flips * flips);
  }
  return bytes;
}

}  // namespace winofault::testing
