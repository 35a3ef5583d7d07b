#include "nn/fault_session.h"

#include "nn/network.h"

namespace winofault {

FaultPlan::LayerFaults FaultSession::sample_layer(int prot_index,
                                                  const ConvLayer& layer,
                                                  ConvPolicy policy,
                                                  DType dtype,
                                                  std::int64_t outputs) {
  FaultPlan::LayerFaults faults;
  // Permanent silicon models inject through the campaign's FaultOverlay;
  // the session samples nothing for them.
  if (config_.ber <= 0.0 || prot_index == config_.fault_free_layer ||
      config_.model.uses_overlay()) {
    return faults;
  }
  const int width = bit_width(dtype);
  if (config_.model.target == FaultTarget::kWeight) {
    faults.weights =
        sample_cell_faults(rng_, layer.param_count(), width, config_.ber);
  } else if (config_.model.target == FaultTarget::kAccum) {
    // Each output element is struck while resident in its PE's
    // accumulator, so the cells are the output elements.
    faults.accums = sample_cell_faults(rng_, outputs, width, config_.ber);
  } else if (config_.mode == InjectionMode::kNeuronLevel) {
    faults.neurons = sample_cell_faults(rng_, outputs, width, config_.ber);
  } else {
    const OpSpace space = layer.op_space(dtype, policy);
    const auto it = config_.protection.find(prot_index);
    const ProtectionSet* protection =
        it != config_.protection.end() ? &it->second : nullptr;
    faults.sites =
        config_.only_kind.has_value()
            ? sampler_.sample_kind(space, *config_.only_kind, rng_, protection)
            : sampler_.sample(space, rng_, protection);
  }
  total_flips_ += static_cast<std::int64_t>(
      faults.sites.size() + faults.neurons.size() + faults.weights.size() +
      faults.accums.size());
  return faults;
}

FaultPlan FaultSession::plan(const Network& network, ConvPolicy policy) {
  FaultPlan plan;
  plan.layers.reserve(static_cast<std::size_t>(network.num_protectable()));
  for (int p = 0; p < network.num_protectable(); ++p) {
    plan.layers.push_back(sample_layer(p, network.protectable_layer(p),
                                       policy, network.dtype(),
                                       network.protectable_shape(p).numel()));
    if (plan.first_faulted < 0 && plan.layers.back().faulted()) {
      plan.first_faulted = p;
    }
  }
  return plan;
}

void apply_output_faults(const FaultPlan::LayerFaults& faults,
                         FaultModelKind kind, int width, TensorI32& out) {
  apply_cell_faults(FaultModelKind::kFlip, faults.neurons, width, out.flat());
  apply_cell_faults(kind, faults.accums, width, out.flat());
}

}  // namespace winofault
