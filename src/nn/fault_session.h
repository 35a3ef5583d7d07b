// Per-inference fault-injection state: the paper's fault-injection platform
// configured for one forward pass. Supports the full experiment matrix:
//   * operation-level injection (Sec 3.1) with per-layer TMR protection,
//   * neuron-level injection (TensorFI/PyTorchFI style, Fig 1),
//   * op-kind restriction (fault-free muls / adds, Fig 4),
//   * fault-free-layer exclusion (layer-wise sensitivity, Fig 3).
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>

#include "common/rng.h"
#include "conv/engine.h"
#include "fault/fault_model.h"
#include "fault/models/model_spec.h"
#include "fault/protection_set.h"
#include "fault/site_sampler.h"
#include "tensor/tensor.h"

namespace winofault {

class ConvLayer;
class Network;

enum class InjectionMode { kOpLevel, kNeuronLevel };

// NOTE: every field here is result-determining, so each is part of
// campaign_point_hash (core/store/hash.cpp). Adding a field means updating
// that hash — and bumping kCampaignSemanticsVersion if the field's default
// changes existing behaviour — or persisted journals will silently replay
// stale cells for configurations that differ only in the new field.
struct FaultConfig {
  double ber = 0.0;
  InjectionMode mode = InjectionMode::kOpLevel;
  // When set, only this op kind receives faults (the other is fault-free).
  std::optional<OpKind> only_kind;
  // Protectable-layer ordinal kept fault-free (-1: none). Fig 3 protocol.
  int fault_free_layer = -1;
  // Fine-grained TMR protection per protectable-layer ordinal (Sec 4.1).
  std::unordered_map<int, ProtectionSet> protection;
  // Which fault model injects (fault/models/model_spec.h). The built-in
  // default (flip@op) reproduces seed semantics bit-for-bit and keeps
  // hashes unchanged; non-default models hash as extra fields. For
  // @weight/@accum targets `mode`, `only_kind`, and `protection` are
  // op-datapath concepts and are ignored; `ber` and `fault_free_layer`
  // apply to every target. Permanent models inject through a per-point
  // FaultOverlay (campaign-built), not through the session.
  FaultModelSpec model = FaultModelSpec::process_default();
};

// The faults of one Network pass, per protectable layer: a trial's, drawn
// by FaultSession::plan, which scratch forwards and replay share, or a
// permanent overlay's defects (overlay_fault_plan, fault/models/overlay.h).
// The incremental replay path (Network::forward_replay) uses
// `first_faulted` to skip everything upstream of the earliest perturbed
// layer.
struct FaultPlan {
  struct LayerFaults {
    std::vector<FaultSite> sites;    // operation-level injection
    std::vector<CellFault> neurons;  // neuron-level injection
    std::vector<CellFault> weights;  // weight-memory faults
    std::vector<CellFault> accums;   // accumulator faults
    bool faulted() const {
      return !sites.empty() || !neurons.empty() || !weights.empty() ||
             !accums.empty();
    }
  };
  std::vector<LayerFaults> layers;  // indexed by protectable-layer ordinal
  int first_faulted = -1;           // earliest faulted ordinal, or -1
};

class FaultSession {
 public:
  FaultSession(const FaultConfig& config, std::uint64_t seed)
      : config_(config), rng_(seed), sampler_(FaultModel{config.ber}) {}

  // Samples this trial's faults for every protectable layer of `network`
  // under `policy`, in ordinal order. The one draw: a scratch forward
  // (Network::forward) and replay (Network::forward_replay) both plan
  // through it, so a session with the same seed draws the same faults for
  // either. A session backs ONE trial: plan it once.
  FaultPlan plan(const Network& network, ConvPolicy policy);

  std::int64_t total_flips() const { return total_flips_; }
  const FaultConfig& config() const { return config_; }

 private:
  // Samples protectable layer `prot_index`: `layer`, run under `policy` at
  // `dtype`, with `outputs` output elements.
  FaultPlan::LayerFaults sample_layer(int prot_index, const ConvLayer& layer,
                                      ConvPolicy policy, DType dtype,
                                      std::int64_t outputs);

  FaultConfig config_;
  Rng rng_;
  SiteSampler sampler_;
  std::int64_t total_flips_ = 0;
};

// Patches a layer's output faults into its stored output `out` of `width`
// bits, in draw order: neuron-level flips XOR activation bits, and
// accumulator upsets apply the model's `kind`.
void apply_output_faults(const FaultPlan::LayerFaults& faults,
                         FaultModelKind kind, int width, TensorI32& out);

}  // namespace winofault
