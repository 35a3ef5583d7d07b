// Samples the fault sites hit during one execution of a layer. Instead of
// rolling a die per op-bit (~1e9 draws per inference), the sampler draws the
// number of flips from Binomial(total_bits, ber) and places them uniformly —
// statistically identical and ~1e4x faster. Sites covered by a protection
// set are voted away by TMR, so they are rejected (protection makes the op
// fault-free, it does not redistribute faults).
//
// Storage cells (weights, stored activations, accumulator registers) are
// sampled the same way by sample_cell_faults: every non-op fault draw in
// the project goes through it.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"
#include "fault/fault_model.h"
#include "fault/models/model_spec.h"
#include "fault/op_space.h"
#include "fault/protection_set.h"

namespace winofault {

class SiteSampler {
 public:
  explicit SiteSampler(FaultModel model) : model_(model) {}

  // Fault sites for one execution of `space`. `protection` may be null.
  std::vector<FaultSite> sample(const OpSpace& space, Rng& rng,
                                const ProtectionSet* protection = nullptr) const;

  // Restriction variant used by the operation-type analysis (Fig 4):
  // sample flips only in ops of `kind` (the other kind is fault-free).
  std::vector<FaultSite> sample_kind(const OpSpace& space, OpKind kind,
                                     Rng& rng,
                                     const ProtectionSet* protection = nullptr)
      const;

  const FaultModel& model() const { return model_; }

 private:
  FaultModel model_;
};

// One fault in a storage cell: bit `bit` of the value at flat index `index`
// (a weight, a stored activation or an accumulator register).
struct CellFault {
  std::int64_t index = 0;
  int bit = 0;
};

// Faults over `units` cells of `width` bits at per-bit rate `ber`: a
// binomial count over units × width bits, then one uniform (index, bit)
// draw per fault, in draw order. Zero BER or zero cells draw nothing.
std::vector<CellFault> sample_cell_faults(Rng& rng, std::int64_t units,
                                          int width, double ber);

// Applies `faults` in order to `cells`, each a `width`-bit register, under
// `kind` (successive faults on one cell compose).
void apply_cell_faults(FaultModelKind kind, std::span<const CellFault> faults,
                       int width, std::span<std::int32_t> cells);

}  // namespace winofault
