#include "nn/network.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/hash.h"
#include "common/logging.h"
#include "fault/models/overlay.h"
#include "nn/fault_session.h"
#include "nn/layers/activation_layer.h"
#include "nn/layers/conv_layer.h"
#include "nn/layers/eltwise_layer.h"
#include "nn/layers/pool_layer.h"

namespace winofault {
namespace {

int argmax_logit(const TensorI32& logits) {
  int best = 0;
  for (std::int64_t i = 1; i < logits.numel(); ++i) {
    if (logits[i] > logits[best]) best = static_cast<int>(i);
  }
  return best;
}

// A pass on pristine silicon with no session: no protectable layer has
// faults.
FaultPlan no_faults(const Network& network) {
  FaultPlan plan;
  plan.layers.resize(static_cast<std::size_t>(network.num_protectable()));
  return plan;
}

}  // namespace

TensorF he_init_conv(std::int64_t out_c, std::int64_t in_c, std::int64_t k,
                     Rng& rng) {
  TensorF w(Shape{out_c, in_c, k, k});
  const double stddev = std::sqrt(2.0 / static_cast<double>(in_c * k * k));
  for (auto& v : w.flat())
    v = static_cast<float>(rng.next_gaussian() * stddev);
  return w;
}

int Network::add_input(Shape shape) {
  WF_CHECK(nodes_.empty());
  input_shape_ = shape;
  Node node;
  node.shape = shape;
  nodes_.push_back(std::move(node));
  return 0;
}

int Network::add_layer(std::unique_ptr<Layer> layer, std::vector<int> inputs) {
  WF_CHECK(!nodes_.empty());
  std::vector<Shape> in_shapes;
  for (const int id : inputs) {
    WF_CHECK(id >= 0 && id < static_cast<int>(nodes_.size()));
    in_shapes.push_back(nodes_[static_cast<std::size_t>(id)].shape);
  }
  Node node;
  node.shape = layer->infer_shape(in_shapes);
  if (dynamic_cast<const ConvLayer*>(layer.get()) != nullptr) {
    node.prot_index = static_cast<int>(protectable_.size());
    protectable_.push_back(static_cast<int>(nodes_.size()));
  }
  node.layer = std::move(layer);
  node.inputs = std::move(inputs);
  nodes_.push_back(std::move(node));
  output_node_ = static_cast<int>(nodes_.size()) - 1;
  return output_node_;
}

int Network::add_conv(int input, std::int64_t out_c, std::int64_t k,
                      std::int64_t stride, std::int64_t pad, Rng& rng,
                      bool relu) {
  const Shape in = nodes_[static_cast<std::size_t>(input)].shape;
  const TensorF weights = he_init_conv(out_c, in.c, k, rng);
  std::vector<float> bias(static_cast<std::size_t>(out_c));
  for (auto& b : bias) b = static_cast<float>(rng.next_gaussian() * 0.02);
  return add_conv(input, out_c, k, stride, pad, weights, std::move(bias),
                  relu);
}

int Network::add_conv(int input, std::int64_t out_c, std::int64_t k,
                      std::int64_t stride, std::int64_t pad,
                      const TensorF& weights, std::vector<float> bias,
                      bool relu) {
  const Shape in = nodes_[static_cast<std::size_t>(input)].shape;
  ConvDesc desc;
  desc.in_c = in.c;
  desc.in_h = in.h;
  desc.in_w = in.w;
  desc.out_c = out_c;
  desc.kh = k;
  desc.kw = k;
  desc.stride = stride;
  desc.pad = pad;
  const int conv = add_layer(
      std::make_unique<ConvLayer>(desc, weights, std::move(bias), dtype_),
      {input});
  return relu ? add_relu(conv) : conv;
}

int Network::add_linear(int input, std::int64_t out_features,
                        const TensorF& weights, std::vector<float> bias) {
  const Shape in = nodes_[static_cast<std::size_t>(input)].shape;
  WF_CHECK(in.h == 1 && in.w == 1);
  // A 1x1 conv over the [1, F, 1, 1] activation; `weights` holds
  // [out_features, F] in row-major order.
  ConvDesc desc;
  desc.in_c = in.c;
  desc.in_h = 1;
  desc.in_w = 1;
  desc.out_c = out_features;
  desc.kh = 1;
  desc.kw = 1;
  desc.pad = 0;
  const TensorF w4(
      Shape{out_features, in.c, 1, 1},
      std::vector<float>(weights.flat().begin(), weights.flat().end()));
  return add_layer(std::make_unique<ConvLayer>(desc, w4, std::move(bias),
                                               dtype_, "linear"),
                   {input});
}

int Network::add_linear(int input, std::int64_t out_features, Rng& rng) {
  const Shape in = nodes_[static_cast<std::size_t>(input)].shape;
  TensorF weights(Shape{out_features, in.c, 1, 1});
  const double stddev = std::sqrt(2.0 / static_cast<double>(in.c));
  for (auto& v : weights.flat())
    v = static_cast<float>(rng.next_gaussian() * stddev);
  std::vector<float> bias(static_cast<std::size_t>(out_features));
  for (auto& b : bias) b = static_cast<float>(rng.next_gaussian() * 0.02);
  return add_linear(input, out_features, weights, std::move(bias));
}

int Network::add_relu(int input) {
  return add_layer(std::make_unique<ReluLayer>(), {input});
}

int Network::add_maxpool(int input, std::int64_t k, std::int64_t stride,
                         std::int64_t pad) {
  return add_layer(std::make_unique<PoolLayer>(PoolMode::kMax, k, stride, pad),
                   {input});
}

int Network::add_avgpool(int input, std::int64_t k, std::int64_t stride,
                         std::int64_t pad) {
  return add_layer(std::make_unique<PoolLayer>(PoolMode::kAvg, k, stride, pad),
                   {input});
}

int Network::add_global_avgpool(int input) {
  return add_layer(std::make_unique<GlobalAvgPoolLayer>(), {input});
}

int Network::add_flatten(int input) {
  return add_layer(std::make_unique<FlattenLayer>(), {input});
}

int Network::add_add(int a, int b) {
  return add_layer(std::make_unique<AddLayer>(), {a, b});
}

int Network::add_concat(std::vector<int> inputs) {
  return add_layer(std::make_unique<ConcatLayer>(), std::move(inputs));
}

TensorI32 Network::quantize_input(const TensorF& image) const {
  WF_CHECK(image.shape() == input_shape_);
  return quantize(image, input_quant_);
}

void Network::calibrate(std::span<const TensorF> images) {
  WF_CHECK(!images.empty());
  WF_CHECK(output_node_ >= 0);

  // Input scale from the image batch.
  double absmax = 1e-6;
  for (const TensorF& image : images) {
    for (const float v : image.flat())
      absmax = std::max(absmax, static_cast<double>(std::fabs(v)));
  }
  input_quant_.dtype = dtype_;
  input_quant_.scale = absmax / static_cast<double>(dtype_max(dtype_));
  nodes_[0].quant = input_quant_;

  // Per-image activations, filled layer by layer in topological order
  // (builder order is topological by construction).
  const std::size_t batch = images.size();
  std::vector<std::vector<NodeOutput>> acts(batch);
  for (std::size_t b = 0; b < batch; ++b) {
    acts[b].resize(nodes_.size());
    acts[b][0].tensor = quantize(images[b], input_quant_);
    acts[b][0].quant = input_quant_;
  }

  // Layer-major, fault-free: a node's scale is chosen over the whole batch
  // before the next node runs.
  for (std::size_t id = 1; id < nodes_.size(); ++id) {
    Node& node = nodes_[id];
    std::vector<QuantParams> in_quants;
    for (const int in : node.inputs)
      in_quants.push_back(nodes_[static_cast<std::size_t>(in)].quant);

    if (node.prot_index >= 0) {
      // Choose the output scale so the widest pre-activation seen across
      // the calibration batch exactly reaches the dtype's max code.
      const ConvLayer& conv = protectable_layer(node.prot_index);
      double real_absmax = 1e-9;
      for (std::size_t b = 0; b < batch; ++b) {
        std::vector<const NodeOutput*> ins;
        for (const int in : node.inputs)
          ins.push_back(&acts[b][static_cast<std::size_t>(in)]);
        real_absmax = std::max(real_absmax, conv.calib_acc_absmax(ins));
      }
      node.quant.dtype = dtype_;
      node.quant.scale = real_absmax / static_cast<double>(dtype_max(dtype_));
    } else {
      node.quant = node.layer->derive_quant(in_quants, dtype_);
    }

    for (std::size_t b = 0; b < batch; ++b) {
      std::vector<const NodeOutput*> ins;
      for (const int in : node.inputs)
        ins.push_back(&acts[b][static_cast<std::size_t>(in)]);
      acts[b][id].tensor = node.layer->forward(ins, node.quant);
      acts[b][id].quant = node.quant;
    }
  }

  // Classifier bias centering: mean logit per class over the batch.
  const std::int64_t classes =
      nodes_[static_cast<std::size_t>(output_node_)].shape.numel();
  logit_offsets_.assign(static_cast<std::size_t>(classes), 0);
  if (center_logits_) {
    for (std::int64_t c = 0; c < classes; ++c) {
      std::int64_t sum = 0;
      for (std::size_t b = 0; b < batch; ++b)
        sum += acts[b][static_cast<std::size_t>(output_node_)].tensor[c];
      logit_offsets_[static_cast<std::size_t>(c)] = static_cast<std::int32_t>(
          sum / static_cast<std::int64_t>(batch));
    }
  }
  calibrated_ = true;
}

TensorI32 Network::forward(const TensorF& image, ExecContext& ctx) const {
  WF_CHECK(calibrated_);
  FaultPlan plan;
  FaultModelKind kind = FaultModelKind::kFlip;
  if (ctx.overlay != nullptr) {
    // The defects are the pass's only faults: an overlay model's session
    // draws nothing (the campaign's inject path brings both).
    WF_CHECK(ctx.session == nullptr ||
             ctx.session->config().model.uses_overlay());
    plan = overlay_fault_plan(*this, *ctx.overlay);
    kind = ctx.overlay->kind;
  } else if (ctx.session != nullptr) {
    plan = ctx.session->plan(*this, ctx.policy);
    kind = ctx.session->config().model.kind;
  } else {
    plan = no_faults(*this);
  }
  std::vector<NodeOutput> acts(nodes_.size());
  acts[0] = NodeOutput{quantize_input(image), input_quant_};
  run_nodes(acts, ctx.policy, plan, kind, nullptr);
  TensorI32 out = std::move(acts[static_cast<std::size_t>(output_node_)].tensor);
  apply_logit_centering(out);
  return out;
}

void Network::apply_logit_centering(TensorI32& logits) const {
  if (logits.numel() != static_cast<std::int64_t>(logit_offsets_.size()))
    return;
  for (std::int64_t c = 0; c < logits.numel(); ++c) {
    logits[c] =
        clamp_to(dtype_, static_cast<std::int64_t>(logits[c]) -
                             logit_offsets_[static_cast<std::size_t>(c)]);
  }
}

int Network::predict(const TensorF& image, ExecContext& ctx) const {
  return argmax_logit(forward(image, ctx));
}

GoldenCache Network::make_golden(const TensorF& image, ConvPolicy policy,
                                 const FaultOverlay* overlay) const {
  WF_CHECK(calibrated_);
  GoldenCache cache;
  cache.policy_ = policy;
  cache.resize(nodes_.size());
  cache.acts_[0] = NodeOutput{quantize_input(image), input_quant_};
  run_nodes(cache.acts_, policy,
            overlay != nullptr ? overlay_fault_plan(*this, *overlay)
                               : no_faults(*this),
            overlay != nullptr ? overlay->kind : FaultModelKind::kFlip,
            nullptr);
  cache.logits_ = cache.acts_[static_cast<std::size_t>(output_node_)].tensor;
  apply_logit_centering(cache.logits_);
  cache.prediction_ = argmax_logit(cache.logits_);
  return cache;
}

TensorI32 Network::forward_replay(const GoldenCache& golden, ConvPolicy policy,
                                  FaultSession& session,
                                  const ReplayVisitor& visit) const {
  WF_CHECK(calibrated_);
  WF_CHECK(golden.valid());
  WF_CHECK(golden.acts_.size() == nodes_.size());
  const FaultPlan plan = session.plan(*this, policy);
  if (plan.first_faulted < 0) return golden.logits_;

  std::vector<NodeOutput> replay(nodes_.size());
  if (!run_nodes(replay, policy, plan, session.config().model.kind, &golden,
                 visit)) {
    return golden.logits_;
  }
  TensorI32 out =
      std::move(replay[static_cast<std::size_t>(output_node_)].tensor);
  apply_logit_centering(out);
  return out;
}

bool Network::run_nodes(std::vector<NodeOutput>& acts, ConvPolicy policy,
                        const FaultPlan& plan, FaultModelKind kind,
                        const GoldenCache* golden,
                        const ReplayVisitor& visit) const {
  // Nodes whose output is in `acts`; a clean node's is the golden's. With
  // a golden, a perturbation that requantizes away leaves its node clean,
  // which prunes the dirty cone there.
  std::vector<char> dirty(nodes_.size(), golden == nullptr ? 1 : 0);
  for (std::size_t id = 1; id < nodes_.size(); ++id) {
    const Node& node = nodes_[id];
    bool inputs_dirty = false;
    for (const int in : node.inputs)
      inputs_dirty |= dirty[static_cast<std::size_t>(in)] != 0;
    const FaultPlan::LayerFaults* faults =
        node.prot_index >= 0
            ? &plan.layers[static_cast<std::size_t>(node.prot_index)]
            : nullptr;
    // Clean inputs and no faults here: the cached activation stays valid.
    if (golden != nullptr && !inputs_dirty &&
        (faults == nullptr || !faults->faulted())) {
      continue;
    }

    std::vector<const NodeOutput*> ins;
    ins.reserve(node.inputs.size());
    for (const int in : node.inputs) {
      const std::size_t i = static_cast<std::size_t>(in);
      ins.push_back(dirty[i] ? &acts[i] : &golden->acts_[i]);
    }
    TensorI32 out;
    if (faults == nullptr) {
      // Relu, pooling, Add, concat, flatten: dense recompute.
      out = node.layer->forward(ins, node.quant);
    } else if (golden == nullptr) {
      // Conv or linear: the layer's faults on top of its dense GEMM.
      out = protectable_layer(node.prot_index)
                .forward_replay(ins, node.quant, policy, *faults, kind,
                                nullptr);
    } else {
      // Conv or linear: the layer's faults on top of its golden output,
      // moved by delta replay where the input or the weights changed.
      const GoldenNode golden_node{
          golden->acts_[static_cast<std::size_t>(node.inputs[0])],
          golden->acts_[id].tensor, golden->accs_[id], inputs_dirty};
      out = protectable_layer(node.prot_index)
                .forward_replay(ins, node.quant, policy, *faults, kind,
                                &golden_node);
    }
    if (visit) visit(static_cast<int>(id), ins, out);
    if (golden != nullptr) {
      // Compare against the golden activation, stopping at the first
      // mismatch; an equal output means every perturbation requantized
      // away. Neuron or accumulator flips on an otherwise-clean node can
      // only change the flipped indices, so only those are compared.
      const TensorI32& gold = golden->acts_[id].tensor;
      const bool patch_only =
          !inputs_dirty && faults->sites.empty() && faults->weights.empty();
      const auto flipped = [&](const CellFault& f) {
        return out[f.index] != gold[f.index];
      };
      const bool differs =
          patch_only ? std::ranges::any_of(faults->neurons, flipped) ||
                           std::ranges::any_of(faults->accums, flipped)
                     : out != gold;
      if (!differs) continue;
    }
    acts[id] = NodeOutput{std::move(out), node.quant};
    dirty[id] = 1;
  }
  return dirty[static_cast<std::size_t>(output_node_)] != 0;
}

int Network::predict_replay(const GoldenCache& golden, ConvPolicy policy,
                            FaultSession& session) const {
  return argmax_logit(forward_replay(golden, policy, session));
}

const ConvLayer& Network::protectable_layer(int prot_index) const {
  // add_layer makes exactly the ConvLayer nodes protectable.
  return static_cast<const ConvLayer&>(
      *nodes_[static_cast<std::size_t>(protectable_node(prot_index))].layer);
}

int Network::protectable_node(int prot_index) const {
  WF_CHECK(prot_index >= 0 && prot_index < num_protectable());
  return protectable_[static_cast<std::size_t>(prot_index)];
}

Shape Network::protectable_shape(int prot_index) const {
  return nodes_[static_cast<std::size_t>(protectable_node(prot_index))].shape;
}

OpSpace Network::protectable_op_space(int prot_index,
                                      ConvPolicy policy) const {
  return protectable_layer(prot_index).op_space(dtype_, policy);
}

OpSpace Network::total_op_space(ConvPolicy policy) const {
  OpSpace total;
  for (int p = 0; p < num_protectable(); ++p)
    total += protectable_op_space(p, policy);
  return total;
}

std::uint64_t Network::fingerprint() const {
  Fnv64 h;
  h.str(name_).u8(static_cast<std::uint8_t>(dtype_));
  h.i64(input_shape_.n)
      .i64(input_shape_.c)
      .i64(input_shape_.h)
      .i64(input_shape_.w);
  h.f64(input_quant_.scale);
  h.i32(output_node_);
  h.u64(nodes_.size());
  for (const Node& node : nodes_) {
    h.str(node.layer ? node.layer->kind() : "input");
    h.u64(node.inputs.size());
    for (const int in : node.inputs) h.i32(in);
    h.i64(node.shape.n).i64(node.shape.c).i64(node.shape.h).i64(node.shape.w);
    h.f64(node.quant.scale).u8(static_cast<std::uint8_t>(node.quant.dtype));
    h.i32(node.prot_index);
    if (node.layer != nullptr) node.layer->hash_params(h);
  }
  h.u64(logit_offsets_.size());
  for (const std::int32_t offset : logit_offsets_) h.i32(offset);
  return h.digest();
}

std::vector<ConvDesc> Network::conv_descs() const {
  std::vector<ConvDesc> descs;
  for (int p = 0; p < num_protectable(); ++p) {
    const ConvLayer& conv = protectable_layer(p);
    if (std::strcmp(conv.kind(), "conv") == 0) descs.push_back(conv.desc());
  }
  return descs;
}

}  // namespace winofault
