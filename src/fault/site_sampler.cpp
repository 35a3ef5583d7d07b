#include "fault/site_sampler.h"

namespace winofault {
namespace {

// Draws `count` uniform sites over one op-kind's bit space, rejecting
// protected ops. TMR-protected sites are dropped (not resampled): protection
// removes those faults from the system rather than moving them elsewhere.
void place_sites(OpKind kind, std::int64_t n_ops, int width,
                 std::int64_t count, Rng& rng,
                 const ProtectionSet* protection,
                 std::vector<FaultSite>& out) {
  const std::uint64_t bit_space =
      static_cast<std::uint64_t>(n_ops) * static_cast<std::uint64_t>(width);
  for (std::int64_t i = 0; i < count; ++i) {
    const std::uint64_t draw = rng.next_below(bit_space);
    FaultSite site;
    site.kind = kind;
    site.op_index = static_cast<std::int64_t>(draw / width);
    site.bit = static_cast<int>(draw % width);
    if (protection && protection->covers(kind, site.op_index)) continue;
    out.push_back(site);
  }
}

}  // namespace

std::vector<FaultSite> SiteSampler::sample(
    const OpSpace& space, Rng& rng, const ProtectionSet* protection) const {
  std::vector<FaultSite> sites;
  if (model_.ber <= 0.0) return sites;
  const std::int64_t mul_flips =
      rng.binomial(space.n_mul * space.mul_bits, model_.ber);
  const std::int64_t add_flips =
      rng.binomial(space.n_add * space.add_bits, model_.ber);
  sites.reserve(static_cast<std::size_t>(mul_flips + add_flips));
  if (space.n_mul > 0)
    place_sites(OpKind::kMul, space.n_mul, space.mul_bits, mul_flips, rng,
                protection, sites);
  if (space.n_add > 0)
    place_sites(OpKind::kAdd, space.n_add, space.add_bits, add_flips, rng,
                protection, sites);
  return sites;
}

std::vector<FaultSite> SiteSampler::sample_kind(
    const OpSpace& space, OpKind kind, Rng& rng,
    const ProtectionSet* protection) const {
  std::vector<FaultSite> sites;
  if (model_.ber <= 0.0) return sites;
  const int width = kind == OpKind::kMul ? space.mul_bits : space.add_bits;
  const std::int64_t n_ops =
      kind == OpKind::kMul ? space.n_mul : space.n_add;
  if (n_ops <= 0 || width <= 0) return sites;
  const std::int64_t flips = rng.binomial(n_ops * width, model_.ber);
  sites.reserve(static_cast<std::size_t>(flips));
  place_sites(kind, n_ops, width, flips, rng, protection, sites);
  return sites;
}

std::vector<CellFault> sample_cell_faults(Rng& rng, std::int64_t units,
                                          int width, double ber) {
  std::vector<CellFault> faults;
  if (ber <= 0.0 || units <= 0) return faults;
  const std::int64_t bit_space = units * width;
  const std::int64_t count = rng.binomial(bit_space, ber);
  faults.reserve(static_cast<std::size_t>(count));
  for (std::int64_t i = 0; i < count; ++i) {
    const std::uint64_t draw =
        rng.next_below(static_cast<std::uint64_t>(bit_space));
    faults.push_back(CellFault{static_cast<std::int64_t>(draw) / width,
                               static_cast<int>(draw % width)});
  }
  return faults;
}

void apply_cell_faults(FaultModelKind kind, std::span<const CellFault> faults,
                       int width, std::span<std::int32_t> cells) {
  for (const CellFault& f : faults) {
    std::int32_t& cell = cells[static_cast<std::size_t>(f.index)];
    cell =
        static_cast<std::int32_t>(apply_fault_kind(kind, cell, f.bit, width));
  }
}

}  // namespace winofault
