// Fault-free activations of one (network, image) pair, computed once by
// Network::make_golden and shared read-only across every injection trial on
// that image, under every ConvPolicy: fault-free outputs are
// engine-independent. A trial replays against the cache instead of
// recomputing the golden forward: Network::forward_replay reuses cached
// activations upstream of the earliest faulted layer, patches that layer's
// cached output in place via the engine's exact apply_faults, and replays
// only the downstream cone, a conv or linear node by delta replay on top of
// its golden accumulators — bit-identical to a scratch forward with the
// same fault session (proved in golden_cache_test).
#pragma once

#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "conv/engine.h"
#include "nn/layer.h"

namespace winofault {

// The raw int64 accumulators (bias included) behind one protectable node's
// golden output, [out_c][out_h*out_w]: the output is their requantization.
// Delta replay fills them on the node's first replay whose input or
// weights changed, for built and shard-restored goldens alike; concurrent
// first replays share that one fill. 8 bytes per output element once
// filled, and never persisted (the shard format carries activations only).
class GoldenAccumulators {
 public:
  // The accumulators, computed by `fill()` on the first call.
  template <typename Fill>
  std::span<const std::int64_t> get(Fill&& fill) const {
    std::call_once(once_, [&] { acc_ = fill(); });
    return acc_;
  }

 private:
  mutable std::once_flag once_;
  mutable std::vector<std::int64_t> acc_;
};

// What the replay of one protectable node reads from its golden.
struct GoldenNode {
  const NodeOutput& input;   // fault-free input activation
  const TensorI32& output;   // fault-free output
  const GoldenAccumulators& accs;
  bool input_dirty;  // the replayed input differs from `input`
};

class GoldenCache {
 public:
  GoldenCache() = default;

  bool valid() const { return !acts_.empty(); }
  // make_golden's policy; only the two-argument predict_replay replays
  // under it.
  ConvPolicy policy() const { return policy_; }

  // Fault-free outputs: logits after calibration centering, and their
  // argmax. An unfaulted trial returns these without touching the graph.
  const TensorI32& logits() const { return logits_; }
  int prediction() const { return prediction_; }

  // Cached fault-free activation of a graph node.
  const NodeOutput& node_output(int node) const {
    return acts_[static_cast<std::size_t>(node)];
  }

 private:
  friend class Network;      // filled by Network::make_golden
  friend class GoldenCodec;  // byte-exact (de)serialization (core/store)

  // Sizes the activations and the (empty) accumulator slots for `nodes`
  // graph nodes; make_golden and GoldenCodec::decode both start here.
  void resize(std::size_t nodes) {
    acts_.resize(nodes);
    accs_ = std::make_unique<GoldenAccumulators[]>(nodes);
  }

  ConvPolicy policy_ = ConvPolicy::kDirect;
  std::vector<NodeOutput> acts_;  // per graph node, fault-free
  std::unique_ptr<GoldenAccumulators[]> accs_;  // per graph node, lazy
  TensorI32 logits_;
  int prediction_ = -1;
};

}  // namespace winofault
