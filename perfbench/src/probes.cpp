// Conv-layer probes of the traced run: every conv geometry of the
// workload's model is driven through the public engine functions on
// synthetic operands of the model's data type.
//   conv.forward_us.<policy>  one fault-free forward of every geometry
//                             through select_engine(policy, desc), with
//                             Winograd given its cached filter bank the way
//                             ConvLayer passes it (median of reps)
//   conv.gemm_gmacs.<isa>     direct_forward_gemm over every geometry under
//                             set_gemm_isa(isa); MACs from the direct
//                             engine's OpSpace. A level the CPU lacks clamps
//                             down and reports the installed level's rate.
//   conv.apply_faults_us_per_site.<policy>
//                             apply_faults of kSitesPerGeometry random
//                             sites on a golden output, per site
#include <cmath>
#include <vector>

#include "common.h"
#include "common/rng.h"
#include "conv/direct_conv.h"
#include "conv/engine.h"
#include "conv/gemm_kernel.h"
#include "conv/winograd_conv.h"
#include "trace.h"

namespace perfbench {

using namespace winofault;

namespace {

constexpr int kReps = 9;
constexpr int kSitesPerGeometry = 16;

struct Geometry {
  ConvDesc desc;
  DType dtype = DType::kInt16;
  TensorI32 input;
  TensorI32 weights;
  std::vector<std::int64_t> bias;
  std::vector<std::int64_t> bank;  // Winograd F(2x2,3x3) filter bank
  ConvData data;
};

std::int32_t uniform(Rng& rng, std::int64_t lo, std::int64_t hi) {
  return static_cast<std::int32_t>(
      lo + static_cast<std::int64_t>(
               rng.next_below(static_cast<std::uint64_t>(hi - lo))));
}

std::vector<Geometry> collect_geometries(const Network& net,
                                         std::uint64_t seed) {
  std::vector<Geometry> geos;
  Rng rng(seed ^ 0xc0417e5ULL);
  for (const ConvDesc& desc : net.conv_descs()) {
    bool seen = false;
    for (const Geometry& g : geos) seen = seen || g.desc == desc;
    if (seen) continue;
    Geometry g;
    g.desc = desc;
    g.dtype = net.dtype();
    const std::int64_t amp = std::int64_t{1} << (bit_width(g.dtype) - 2);
    g.input = TensorI32(desc.in_shape());
    for (std::int32_t& v : g.input.flat()) v = uniform(rng, 0, amp);
    g.weights = TensorI32(desc.weight_shape());
    for (std::int32_t& v : g.weights.flat()) v = uniform(rng, -amp, amp);
    g.bias.resize(static_cast<std::size_t>(desc.out_c));
    for (std::int64_t& v : g.bias) v = uniform(rng, -amp, amp);
    geos.push_back(std::move(g));
  }
  // Pointers into the geometries are taken only once the vector is final.
  for (Geometry& g : geos) {
    const std::int64_t amp = std::int64_t{1} << (bit_width(g.dtype) - 2);
    const double window =
        static_cast<double>(g.desc.in_c * g.desc.kh * g.desc.kw);
    g.data.input = &g.input;
    g.data.weights = &g.weights;
    g.data.bias = &g.bias;
    g.data.dtype = g.dtype;
    g.data.acc_scale = 1.0 / (static_cast<double>(amp) * std::sqrt(window));
    g.data.out_quant = QuantParams{1.0, g.dtype};
    const ConvEngine& wg = select_engine(ConvPolicy::kWinograd2, g.desc);
    if (&wg != &direct_engine()) {
      g.bank = static_cast<const WinogradConvEngine&>(wg).transform_filters(
          g.desc, g.data);
    }
  }
  return geos;
}

// The data an engine call sees: Winograd engines get the cached bank.
ConvData engine_data(const Geometry& g, const ConvEngine& engine) {
  ConvData data = g.data;
  if (&engine != &direct_engine() && !g.bank.empty()) {
    data.wg_bank_f2 = &g.bank;
  }
  return data;
}

// Median over kReps of the summed microseconds of `call(k, geometry)` on
// every geometry.
template <typename Call>
double median_sweep_us(const std::vector<Geometry>& geos, Call&& call) {
  std::vector<double> reps;
  for (int r = 0; r < kReps; ++r) {
    double total_ns = 0;
    for (std::size_t k = 0; k < geos.size(); ++k) total_ns += call(k, geos[k]);
    reps.push_back(total_ns / 1e3);
  }
  return median(reps);
}

double time_ns(const std::function<void()>& body) {
  const std::int64_t t0 = now_ns();
  body();
  return static_cast<double>(now_ns() - t0);
}

}  // namespace

void run_conv_probes(Run& run, const Network& net) {
  Span span("conv.probes");
  const std::vector<Geometry> geos = collect_geometries(net, run.seed);

  for (const auto& [policy, label] :
       {std::pair{ConvPolicy::kDirect, "direct"},
        std::pair{ConvPolicy::kWinograd2, "winograd2"}}) {
    run.set(std::string("conv.forward_us.") + label,
            median_sweep_us(geos, [&, policy = policy](std::size_t,
                                                       const Geometry& g) {
              const ConvEngine& engine = select_engine(policy, g.desc);
              const ConvData data = engine_data(g, engine);
              return time_ns([&] {
                Span s("conv.forward");
                const TensorI32 out = engine.forward(g.desc, data);
              });
            }));

    // Same sites for every rep; the golden copy is made outside the clock.
    Rng rng(run.seed ^ 0xfa17ULL);
    std::vector<std::vector<FaultSite>> sites(geos.size());
    std::vector<TensorI32> goldens(geos.size());
    for (std::size_t k = 0; k < geos.size(); ++k) {
      const Geometry& g = geos[k];
      const ConvEngine& engine = select_engine(policy, g.desc);
      goldens[k] = engine.forward(g.desc, engine_data(g, engine));
      const OpSpace os = engine.op_space(g.desc, g.dtype);
      for (int s = 0; s < kSitesPerGeometry; ++s) {
        FaultSite site;
        const bool mul =
            rng.next_below(static_cast<std::uint64_t>(os.total_ops())) <
            static_cast<std::uint64_t>(os.n_mul);
        site.kind = mul ? OpKind::kMul : OpKind::kAdd;
        site.op_index = static_cast<std::int64_t>(rng.next_below(
            static_cast<std::uint64_t>(mul ? os.n_mul : os.n_add)));
        site.bit = static_cast<int>(rng.next_below(
            static_cast<std::uint64_t>(mul ? os.mul_bits : os.add_bits)));
        sites[k].push_back(site);
      }
    }
    const double us = median_sweep_us(geos, [&, policy = policy](
                                                std::size_t k,
                                                const Geometry& g) {
      const ConvEngine& engine = select_engine(policy, g.desc);
      const ConvData data = engine_data(g, engine);
      TensorI32 out = goldens[k];
      return time_ns([&] {
        Span s("conv.apply_faults");
        engine.apply_faults(g.desc, data, sites[k], out);
      });
    });
    run.set(std::string("conv.apply_faults_us_per_site.") + label,
            us / static_cast<double>(geos.size() * kSitesPerGeometry));
  }

  double macs = 0;
  for (const Geometry& g : geos) {
    macs += static_cast<double>(direct_engine().op_space(g.desc, g.dtype).n_mul);
  }
  const GemmIsa original = active_gemm_isa();
  for (const auto& [isa, label] :
       {std::pair{GemmIsa::kScalar, "scalar"}, std::pair{GemmIsa::kAvx2, "avx2"},
        std::pair{GemmIsa::kAvx512, "avx512"}}) {
    set_gemm_isa(isa);
    const double us = median_sweep_us(geos, [&](std::size_t,
                                                const Geometry& g) {
      return time_ns([&] {
        Span s("conv.gemm");
        const TensorI32 out = direct_forward_gemm(g.desc, g.data);
      });
    });
    run.set(std::string("conv.gemm_gmacs.") + label, macs / (us * 1e3));
  }
  set_gemm_isa(original);
}

}  // namespace perfbench
