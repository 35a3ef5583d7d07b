// Fault-free activations of one (network, image) pair, computed once by
// Network::make_golden and shared read-only across every injection trial on
// that image, under every ConvPolicy: fault-free outputs are
// engine-independent. A trial replays against the cache instead of
// recomputing the golden forward: Network::forward_replay reuses cached
// activations upstream of the earliest faulted layer, patches that layer's
// cached output in place via the engine's exact apply_faults, and recomputes
// only the downstream cone — bit-identical to a scratch forward with the
// same fault session (proved in golden_cache_test).
#pragma once

#include <vector>

#include "conv/engine.h"
#include "nn/layer.h"

namespace winofault {

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

  ConvPolicy policy_ = ConvPolicy::kDirect;
  std::vector<NodeOutput> acts_;  // per graph node, fault-free
  TensorI32 logits_;
  int prediction_ = -1;
};

}  // namespace winofault
