// Permanent-fault overlay: the materialized form of a permanent silicon
// fault model at one campaign point. Where transient models re-sample per
// (image, trial), a permanent model is ONE deterministic set of defective
// cells — stuck or inverted weight-memory bits, or stuck accumulator-
// register bits in the systolic array — sampled once per point and applied
// to every forward. The Network applies it as the faults of a pass
// (overlay_fault_plan) in make_golden and in a scratch forward whose
// ExecContext::overlay is set; the campaign keys the resulting
// faulted-weights goldens into GoldenLru / store shards by `digest`, so
// overlay goldens never collide with clean ones and replay stays
// bit-identical across resume, dist workers, and warm daemon sessions.
#pragma once

#include <cstdint>
#include <vector>

#include "fault/models/model_spec.h"
#include "fault/site_sampler.h"

namespace winofault {

class Network;
struct FaultConfig;
struct FaultPlan;

struct FaultOverlay {
  FaultModelKind kind = FaultModelKind::kFlip;
  // Defective weight cells per protectable-layer ordinal, applied to a
  // weight copy under `kind` as transient weight faults are.
  std::vector<std::vector<CellFault>> weights;
  // Defective bits per accumulator register (accel/systolic PE ordinal);
  // non-empty only for @accum models. Every output element a register
  // produces (flat_index % registers == pe) takes its faults.
  std::vector<std::vector<int>> accum_bits;
  std::int64_t site_count = 0;  // total defective bits
  std::uint64_t digest = 0;     // golden-variant key; 0 iff empty()

  bool empty() const { return site_count == 0; }
};

// Samples the overlay for `config.model` (which must be a permanent
// @weight/@accum model) deterministically from (model, defect probability,
// seed, network geometry). The defect probability is the model's arg when
// set, else the point's BER; `config.fault_free_layer` is honored for
// @weight. Every draw goes through sample_cell_faults (fault/site_sampler.h)
// on one salted stream: per layer in ordinal order for @weight, over the
// register file for @accum. Pure function of its inputs — every
// worker/daemon/resume rebuild draws the identical overlay.
FaultOverlay build_fault_overlay(const Network& network,
                                 const FaultConfig& config,
                                 std::uint64_t seed);

// The overlay as the faults of one pass over `network`, applied under
// `overlay.kind`: each protectable layer's defective weight cells become
// its `weights` faults, and each defective bit of an accumulator register
// becomes an `accums` fault on every output element that register
// produces, one element's bits in overlay order. ConvLayer::forward_replay
// applies them in the silicon's order: the defective weight copy, the
// GEMM, then the register bits. Register defects land on every
// protectable layer; only @weight honors fault_free_layer.
FaultPlan overlay_fault_plan(const Network& network,
                             const FaultOverlay& overlay);

}  // namespace winofault
