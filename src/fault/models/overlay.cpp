#include "fault/models/overlay.h"

#include "accel/systolic.h"
#include "common/hash.h"
#include "common/logging.h"
#include "common/rng.h"
#include "nn/fault_session.h"
#include "nn/network.h"

namespace winofault {
namespace {

// Overlay RNG stream: derived from the campaign point's seed but disjoint
// from fault_stream_seed's per-(image, trial) streams, so a permanent
// model's defect map never correlates with transient draws.
constexpr std::uint64_t kOverlayStreamSalt = 0x57464f564c41590dULL;  // WFOVLAY

std::uint64_t overlay_digest(const FaultOverlay& overlay) {
  if (overlay.site_count == 0) return 0;
  Fnv64 h;
  h.u64(0x57464f56ULL);  // "WFOV"
  h.u8(static_cast<std::uint8_t>(overlay.kind));
  h.u64(overlay.weights.size());
  for (const std::vector<CellFault>& layer : overlay.weights) {
    h.u64(layer.size());
    for (const CellFault& f : layer) h.i64(f.index).i32(f.bit);
  }
  h.u64(overlay.accum_bits.size());
  for (const std::vector<int>& bits : overlay.accum_bits) {
    h.u64(bits.size());
    for (const int bit : bits) h.i32(bit);
  }
  return h.digest();
}

}  // namespace

FaultOverlay build_fault_overlay(const Network& network,
                                 const FaultConfig& config,
                                 std::uint64_t seed) {
  WF_CHECK(config.model.uses_overlay());
  FaultOverlay overlay;
  overlay.kind = config.model.kind;
  const double rate = config.model.arg > 0.0 ? config.model.arg : config.ber;
  Rng rng(seed * 0x9e3779b97f4a7c15ULL ^ kOverlayStreamSalt);
  const int width = bit_width(network.dtype());

  if (config.model.target == FaultTarget::kWeight) {
    overlay.weights.resize(
        static_cast<std::size_t>(network.num_protectable()));
    for (int p = 0; p < network.num_protectable(); ++p) {
      if (p == config.fault_free_layer) continue;
      std::vector<CellFault>& layer =
          overlay.weights[static_cast<std::size_t>(p)];
      layer = sample_cell_faults(
          rng, network.protectable_layer(p).param_count(), width, rate);
      overlay.site_count += static_cast<std::int64_t>(layer.size());
    }
  } else {  // kAccum: defects in the PE accumulator register file
    const int registers = accumulator_registers(SystolicConfig{});
    overlay.accum_bits.resize(static_cast<std::size_t>(registers));
    for (const CellFault& f :
         sample_cell_faults(rng, registers, width, rate)) {
      overlay.accum_bits[static_cast<std::size_t>(f.index)].push_back(f.bit);
      ++overlay.site_count;
    }
  }
  overlay.digest = overlay_digest(overlay);
  return overlay;
}

FaultPlan overlay_fault_plan(const Network& network,
                             const FaultOverlay& overlay) {
  const SystolicConfig config{};
  WF_CHECK(overlay.accum_bits.empty() ||
           static_cast<int>(overlay.accum_bits.size()) ==
               accumulator_registers(config));
  FaultPlan plan;
  plan.layers.resize(static_cast<std::size_t>(network.num_protectable()));
  for (int p = 0; p < network.num_protectable(); ++p) {
    FaultPlan::LayerFaults& faults = plan.layers[static_cast<std::size_t>(p)];
    if (static_cast<std::size_t>(p) < overlay.weights.size()) {
      faults.weights = overlay.weights[static_cast<std::size_t>(p)];
    }
    if (!overlay.accum_bits.empty()) {
      const std::int64_t outputs = network.protectable_shape(p).numel();
      for (std::int64_t j = 0; j < outputs; ++j) {
        for (const int bit : overlay.accum_bits[static_cast<std::size_t>(
                 accum_register_for_output(config, j))]) {
          faults.accums.push_back(CellFault{j, bit});
        }
      }
    }
    if (plan.first_faulted < 0 && faults.faulted()) plan.first_faulted = p;
  }
  return plan;
}

}  // namespace winofault
