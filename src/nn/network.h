// Quantized inference network: a DAG of layers with per-node quantization,
// built through a small builder API, calibrated on sample images, and
// executed under any ConvPolicy with optional fault injection. The Network
// is the one place that draws and applies faults: a scratch forward, a
// golden build and replay run one node loop, which hands every protectable
// node its faults from the pass's FaultPlan.
//
// Winograd and direct execution are bit-identical fault-free (guaranteed by
// the integer Winograd engines), so a single calibration serves every
// policy and all accuracy differences under faults are pure fault effects.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "nn/golden_cache.h"
#include "nn/layer.h"
#include "nn/layers/conv_layer.h"

namespace winofault {

class FaultSession;
struct FaultOverlay;

// Per-inference parameters of a scratch forward.
struct ExecContext {
  ConvPolicy policy = ConvPolicy::kDirect;
  FaultSession* session = nullptr;  // null => no transient faults
  // Permanent-fault overlay (fault/models/overlay.h): the defective
  // silicon the pass runs on, as make_golden bakes it in. Null => pristine
  // silicon. Only an overlay model's session, which draws nothing, may
  // come with it (checked).
  const FaultOverlay* overlay = nullptr;
};

class Network {
 public:
  explicit Network(std::string name, DType dtype)
      : name_(std::move(name)), dtype_(dtype) {}

  const std::string& name() const { return name_; }
  DType dtype() const { return dtype_; }

  // ---- Builder API (returns node ids) ----
  int add_input(Shape shape);
  int add_layer(std::unique_ptr<Layer> layer, std::vector<int> inputs);
  // Convenience wrappers used by the model zoo; weights are He-initialized
  // from `rng` unless provided.
  int add_conv(int input, std::int64_t out_c, std::int64_t k,
               std::int64_t stride, std::int64_t pad, Rng& rng,
               bool relu = true);
  // Explicit-weight variants (used when importing trained models).
  int add_conv(int input, std::int64_t out_c, std::int64_t k,
               std::int64_t stride, std::int64_t pad, const TensorF& weights,
               std::vector<float> bias, bool relu = true);
  int add_linear(int input, std::int64_t out_features, Rng& rng);
  int add_linear(int input, std::int64_t out_features, const TensorF& weights,
                 std::vector<float> bias);
  int add_relu(int input);
  int add_maxpool(int input, std::int64_t k, std::int64_t stride,
                  std::int64_t pad = 0);
  int add_avgpool(int input, std::int64_t k, std::int64_t stride,
                  std::int64_t pad = 0);
  int add_global_avgpool(int input);
  int add_flatten(int input);
  int add_add(int a, int b);
  int add_concat(std::vector<int> inputs);
  void set_output(int node) { output_node_ = node; }

  // ---- Calibration ----
  // Runs `images` through the network layer by layer, choosing each
  // protectable layer's output scale from the observed accumulator range,
  // and centers the classifier logits on the batch mean (the calibrated
  // output bias a trained, class-balanced head would have; without it a
  // random-weight network predicts one constant class for every input).
  // Must be called once before forward()/predict().
  void calibrate(std::span<const TensorF> images);
  bool calibrated() const { return calibrated_; }

  // Disable logit centering before calibrate() for genuinely trained
  // models, whose classifier bias is already meaningful.
  void set_logit_centering(bool enabled) { center_logits_ = enabled; }

  // ---- Execution (thread-safe after calibration) ----
  // Scratch forward: every node recomputed under the faults the session
  // plans (FaultSession::plan) or the overlay's defects, with no golden and
  // no pruning — the replay oracle.
  TensorI32 forward(const TensorF& image, ExecContext& ctx) const;
  int predict(const TensorF& image, ExecContext& ctx) const;

  // ---- Golden cache + incremental fault replay ----
  // Computes the fault-free activations of `image`, shared read-only by all
  // subsequent replay trials on this image. Fault-free outputs are
  // engine-independent, so a golden built under any `policy` serves replay
  // under every policy; `policy` only sets the golden's tag. A non-null
  // `overlay` (fault/models/overlay.h) bakes a permanent-fault model's
  // defective weight/accumulator cells into every protectable layer as the
  // pass's plan faults (overlay_fault_plan), producing a *faulted-weights
  // golden variant* — "fault-free" then means "no transient faults on the
  // defective silicon". Callers key variant goldens by overlay->digest
  // (GoldenLru/store) so they never serve a clean-silicon replay.
  GoldenCache make_golden(const TensorF& image, ConvPolicy policy,
                          const FaultOverlay* overlay = nullptr) const;
  // One injection trial under `policy` against the cache: pre-samples the
  // session's faults (consuming its RNG exactly as a scratch forward would),
  // reuses cached activations upstream of the earliest faulted layer, and
  // replays only the downstream cone. A dirty conv or linear node, or one
  // with weight faults, replays by delta (ConvLayer::forward_replay): its
  // golden accumulators plus W·Δx plus ΔW·x', requantized where they moved,
  // so no replay runs a dense conv GEMM; other dirty nodes recompute with
  // forward. Bit-identical to forward()/predict() under `policy` with the
  // same session seed. The session must be fresh (one session per trial).
  // `visit`, when set, sees every node the replay recomputed: its id, the
  // inputs it read and its output before the comparison with golden.
  using ReplayVisitor =
      std::function<void(int node, std::span<const NodeOutput* const> ins,
                         const TensorI32& out)>;
  TensorI32 forward_replay(const GoldenCache& golden, ConvPolicy policy,
                           FaultSession& session,
                           const ReplayVisitor& visit = nullptr) const;
  int predict_replay(const GoldenCache& golden, ConvPolicy policy,
                     FaultSession& session) const;
  // Replays under the policy the golden is tagged with.
  int predict_replay(const GoldenCache& golden, FaultSession& session) const {
    return predict_replay(golden, golden.policy(), session);
  }

  // ---- Introspection ----
  // Content fingerprint of the calibrated network: name, dtype, topology
  // (per-node kind, fan-in, shape), every layer's learned parameters
  // (quantized weights + bias, via Layer::hash_params), and the
  // calibration signature (quantization scales, logit-centering offsets).
  // Identity key of the persistent campaign store (core/store). Weights
  // are hashed directly because clean-execution equivalence does not
  // imply fault-injection equivalence.
  std::uint64_t fingerprint() const;
  Shape input_shape() const { return input_shape_; }
  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  // The graph nodes a node reads, in input order.
  std::span<const int> node_inputs(int node) const {
    return nodes_[static_cast<std::size_t>(node)].inputs;
  }
  // Protectable (conv/linear) layers in execution order: the index space of
  // FaultConfig::fault_free_layer and FaultConfig::protection.
  int num_protectable() const { return static_cast<int>(protectable_.size()); }
  const ConvLayer& protectable_layer(int prot_index) const;
  // Graph node id and output shape of a protectable layer.
  int protectable_node(int prot_index) const;
  Shape protectable_shape(int prot_index) const;
  OpSpace protectable_op_space(int prot_index, ConvPolicy policy) const;
  // Whole-network op space under a policy.
  OpSpace total_op_space(ConvPolicy policy) const;
  // All conv descriptors in execution order, linear heads excluded
  // (performance model input).
  std::vector<ConvDesc> conv_descs() const;

 private:
  struct Node {
    std::unique_ptr<Layer> layer;  // null for the input node
    std::vector<int> inputs;
    Shape shape;
    QuantParams quant;
    int prot_index = -1;  // ordinal among protectable layers (ConvLayer)
  };

  // The one node loop behind forward, make_golden and forward_replay. Runs
  // the nodes after the input in order into `acts`, whose entry 0 holds
  // the quantized input when there is no golden. A protectable node
  // computes through ConvLayer::forward_replay with its `plan` faults under
  // `kind`, every other node through Layer::forward. Without a golden every
  // node runs. With one, only the dirty cone does: a node with clean inputs
  // and no faults keeps its golden activation, and so does one whose output
  // equals it, which prunes the cone. `visit` sees every node that ran.
  // Returns whether `acts` holds the output node's output (with a golden:
  // whether it differs from the golden's).
  bool run_nodes(std::vector<NodeOutput>& acts, ConvPolicy policy,
                 const FaultPlan& plan, FaultModelKind kind,
                 const GoldenCache* golden,
                 const ReplayVisitor& visit = nullptr) const;

  TensorI32 quantize_input(const TensorF& image) const;
  // Subtracts the per-class calibration offsets from classifier logits.
  void apply_logit_centering(TensorI32& logits) const;

  std::string name_;
  DType dtype_;
  Shape input_shape_;
  std::vector<Node> nodes_;
  std::vector<int> protectable_;  // node ids of protectable layers
  int output_node_ = -1;
  bool calibrated_ = false;
  bool center_logits_ = true;
  QuantParams input_quant_;
  // Per-class logit centering offsets (output quant units), see calibrate().
  std::vector<std::int32_t> logit_offsets_;
};

// He-normal initialized conv weight tensor [out_c, in_c, k, k].
TensorF he_init_conv(std::int64_t out_c, std::int64_t in_c, std::int64_t k,
                     Rng& rng);

}  // namespace winofault
