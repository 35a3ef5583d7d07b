// Pluggable fault-model registry: named, string-spec'd fault models that
// generalize the single hard-coded transient-bit-flip injector into a
// campaign axis. A model is (kind, target, persistence, arg), written in a
// WINOFAULT_CHAOS-style grammar:
//
//   spec        := kind [ "(" arg ")" ] "@" target [ "#" persistence ]
//   kind        := "flip" | "stuck0" | "stuck1" | "toggle"
//   target      := "op" | "weight" | "accum"
//   persistence := "trans" | "transient" | "perm" | "permanent"
//
// Examples: "flip@op" (the built-in default — bit-identical to seed
// semantics), "stuck0@weight#perm", "toggle@accum".
//
// Semantics by target:
//   op      transient bit flips on operation results in the datapath —
//           today's injector, unchanged. "toggle" is an alias for "flip"
//           at this target (an XOR upset IS a toggle); it hashes as a
//           distinct campaign axis. Stuck-at kinds need a storage cell to
//           stick and are rejected at @op.
//   weight  faults in weight memory (the quantized filter tensors).
//           Transient: re-sampled per (image, trial) — a read upset.
//           Permanent: one deterministic per-point overlay of stuck/flipped
//           cells persisting across every image and trial (a manufacturing
//           or wear-out defect); produces a faulted-weights golden variant.
//   accum   faults in the systolic array's accumulator registers
//           (src/accel/systolic: rows x cols PEs). Transient: per-trial
//           upsets on output elements while resident in their register.
//           Permanent: per-register stuck/toggled bits applied to every
//           output element the register produces.
//
// Storage faults (slow disk, read bit flips, medium errors) are not models:
// they are WINOFAULT_CHAOS rules (common/iofault), e.g. "slow(5)@any#1+",
// "flip@read#1", "eio@read#1".
//
// `arg` is, for permanent models, an optional per-bit defect probability
// overriding the point's BER. The built-in default model keeps every hash,
// journal, and figure byte-identical to pre-registry output.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "fault/bitflip.h"

namespace winofault {

enum class FaultModelKind : std::uint8_t {
  kFlip = 0,
  kStuck0 = 1,
  kStuck1 = 2,
  kToggle = 3,
};

enum class FaultTarget : std::uint8_t {
  kOp = 0,
  kWeight = 1,
  kAccum = 2,
};

enum class FaultPersistence : std::uint8_t {
  kTransient = 0,
  kPermanent = 1,
};

struct FaultModelSpec {
  FaultModelKind kind = FaultModelKind::kFlip;
  FaultTarget target = FaultTarget::kOp;
  FaultPersistence persistence = FaultPersistence::kTransient;
  double arg = 0.0;

  // True for the built-in model (flip@op, transient, no arg) — the one
  // whose campaign hashes, journals, and figure CSVs must stay
  // byte-identical to the pre-registry seed semantics.
  bool is_default() const {
    return kind == FaultModelKind::kFlip && target == FaultTarget::kOp &&
           persistence == FaultPersistence::kTransient && arg == 0.0;
  }
  bool is_permanent() const {
    return persistence == FaultPersistence::kPermanent;
  }
  // Permanent silicon models inject via a per-point FaultOverlay (and a
  // golden variant) instead of per-trial sampling.
  bool uses_overlay() const {
    return is_permanent() && (target == FaultTarget::kWeight ||
                              target == FaultTarget::kAccum);
  }

  // Parses the grammar above. Returns nullopt and fills *error (if
  // non-null) on malformed specs or invalid kind/target/persistence
  // combinations.
  static std::optional<FaultModelSpec> parse(const std::string& spec,
                                             std::string* error = nullptr);
  // Round-trips through parse(); the default model prints as "flip@op".
  std::string to_string() const;
  // Filesystem/CSV-safe identifier, e.g. "stuck0_weight_perm".
  std::string slug() const;

  // The process-wide default model: WINOFAULT_FAULT_MODEL if set and
  // parseable, else the built-in flip@op. Read once; malformed values warn
  // and fall back to the built-in (bench drivers validate the env
  // separately and exit(2) on typos).
  static const FaultModelSpec& process_default();

  friend bool operator==(const FaultModelSpec& a, const FaultModelSpec& b) {
    return a.kind == b.kind && a.target == b.target &&
           a.persistence == b.persistence && a.arg == b.arg;
  }
  friend bool operator!=(const FaultModelSpec& a, const FaultModelSpec& b) {
    return !(a == b);
  }
};

const char* fault_kind_name(FaultModelKind kind);
const char* fault_target_name(FaultTarget target);

// Applies one fault of `kind` to bit `bit` of `value` interpreted as a
// `width`-bit two's complement register, returning the sign-extended
// result. flip and toggle XOR the bit (see flip_bit); stuck0/stuck1 force
// it clear/set. Preconditions as flip_bit.
constexpr std::int64_t apply_fault_kind(FaultModelKind kind,
                                        std::int64_t value, int bit,
                                        int width) {
  if (kind == FaultModelKind::kFlip || kind == FaultModelKind::kToggle) {
    return flip_bit(value, bit, width);
  }
  const std::uint64_t mask = (width >= 64) ? ~0ULL : ((1ULL << width) - 1ULL);
  std::uint64_t reg = static_cast<std::uint64_t>(value) & mask;
  if (kind == FaultModelKind::kStuck0) {
    reg &= ~(1ULL << bit);
  } else {  // kStuck1
    reg |= (1ULL << bit);
  }
  const std::uint64_t sign = 1ULL << (width - 1);
  if (reg & sign) reg |= ~mask;
  return static_cast<std::int64_t>(reg);
}

}  // namespace winofault
