#include "core/service/protocol.h"

#include <cinttypes>
#include <climits>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>

namespace winofault {

// ---- Domain codecs -------------------------------------------------------

namespace {

const char* policy_name(ConvPolicy policy) {
  switch (policy) {
    case ConvPolicy::kDirect: return "direct";
    case ConvPolicy::kWinograd2: return "winograd2";
    case ConvPolicy::kWinograd4: return "winograd4";
  }
  return "direct";
}

bool parse_policy(const std::string& name, ConvPolicy* policy) {
  if (name == "direct") *policy = ConvPolicy::kDirect;
  else if (name == "winograd2") *policy = ConvPolicy::kWinograd2;
  else if (name == "winograd4") *policy = ConvPolicy::kWinograd4;
  else return false;
  return true;
}

bool fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

// Reads an int field that must lie in [lo, INT_MAX]. A fraction, a
// non-number or an out-of-range value is rejected rather than narrowed,
// which would run a different experiment than the client sent.
bool read_int(const Json& value, const char* field, int lo, int* out,
              std::string* error) {
  const double v = value.as_double(NAN);
  if (!(v >= lo && v <= INT_MAX) || v != std::floor(v)) {
    return fail(error, std::string(field) + " must be an integer in [" +
                           std::to_string(lo) + ", " +
                           std::to_string(INT_MAX) + "]");
  }
  *out = static_cast<int>(v);
  return true;
}

// Reads a field that must be an integer in [0, the largest T]. Integer
// literals are read exactly (seeds and hashes exceed 2^53), and as_uint
// returns 0 for anything it cannot represent, so comparing the value back
// with the number rejects a fraction, a non-number, a negative and an
// out-of-range value alike.
template <typename T>
bool read_uint(const Json& value, const char* field, T* out,
               std::string* error) {
  constexpr auto hi = static_cast<std::uint64_t>(std::numeric_limits<T>::max());
  const std::uint64_t v = value.as_uint(0);
  if (v > hi || static_cast<double>(v) != value.as_double(NAN)) {
    return fail(error, std::string(field) + " must be an integer in [0, " +
                           std::to_string(hi) + "]");
  }
  *out = static_cast<T>(v);
  return true;
}

}  // namespace

std::string model_env_key(const ModelEnv& env) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s\x1f%s\x1f%d\x1f%" PRIu64 "\x1f%.17g",
                env.model.c_str(), dtype_name(env.dtype), env.images,
                env.seed, env.width);
  return buf;
}

Json encode_model_env(const ModelEnv& env) {
  Json j = Json::object();
  j.set("model", Json::str(env.model));
  j.set("dtype", Json::str(dtype_name(env.dtype)));
  j.set("images", Json::integer(env.images));
  j.set("seed", Json::unsigned_integer(env.seed));
  j.set("width", Json::number(env.width));
  if (env.env_hash != 0) {
    j.set("env_hash", Json::unsigned_integer(env.env_hash));
  }
  return j;
}

bool decode_model_env(const Json& json, ModelEnv* env, std::string* error) {
  if (!json.is_object()) return fail(error, "env must be an object");
  const Json* model = json.find("model");
  if (model == nullptr || !model->is_string() ||
      model->as_string().empty()) {
    return fail(error, "env.model missing");
  }
  env->model = model->as_string();
  const std::string dtype = json.find("dtype") != nullptr
                                ? json.find("dtype")->as_string()
                                : "int16";
  if (dtype == "int8") env->dtype = DType::kInt8;
  else if (dtype == "int16") env->dtype = DType::kInt16;
  else return fail(error, "env.dtype must be int8|int16");
  env->images = 10;
  if (const Json* images = json.find("images");
      images != nullptr &&
      !read_int(*images, "env.images", 1, &env->images, error)) {
    return false;
  }
  env->seed = 2024;
  if (const Json* seed = json.find("seed");
      seed != nullptr && !read_uint(*seed, "env.seed", &env->seed, error)) {
    return false;
  }
  const Json* width = json.find("width");
  env->width = width != nullptr ? width->as_double(0.0) : 0.0;
  // 1.0 is the paper's full-width model. A wider one may not throw when
  // built but can still exhaust the daemon's memory.
  if (!std::isfinite(env->width) || env->width < 0.0 || env->width > 1.0) {
    return fail(error, "env.width must be in [0, 1] (0 = the model's "
                       "default)");
  }
  env->env_hash = 0;
  if (const Json* env_hash = json.find("env_hash");
      env_hash != nullptr &&
      !read_uint(*env_hash, "env.env_hash", &env->env_hash, error)) {
    return false;
  }
  return true;
}

Json encode_campaign_spec(const CampaignSpec& spec) {
  Json j = Json::object();
  j.set("threads", Json::integer(spec.threads));
  j.set("golden_capacity",
        Json::unsigned_integer(static_cast<std::uint64_t>(
            spec.golden_capacity)));
  if (spec.store.enabled()) {
    Json store = Json::object();
    store.set("dir", Json::str(spec.store.dir));
    store.set("journal", Json::boolean(spec.store.journal));
    store.set("spill_goldens", Json::boolean(spec.store.spill_goldens));
    store.set("golden_disk_budget",
              Json::unsigned_integer(spec.store.golden_disk_budget));
    store.set("cell_budget", Json::integer(spec.store.cell_budget));
    j.set("store", std::move(store));
  }
  Json points = Json::array();
  for (const CampaignPoint& point : spec.points) {
    Json p = Json::object();
    p.set("ber", Json::number(point.fault.ber));
    p.set("mode", Json::str(point.fault.mode == InjectionMode::kOpLevel
                                ? "op"
                                : "neuron"));
    if (point.fault.only_kind.has_value()) {
      p.set("only_kind", Json::str(op_kind_name(*point.fault.only_kind)));
    }
    if (point.fault.fault_free_layer >= 0) {
      p.set("fault_free_layer", Json::integer(point.fault.fault_free_layer));
    }
    if (!point.fault.protection.empty()) {
      // In layer order, so the line is a function of the content and not
      // of the map's insertion history (decoding and re-encoding a line
      // gives the same line).
      const std::map<int, ProtectionSet> sorted(
          point.fault.protection.begin(), point.fault.protection.end());
      Json prot = Json::array();
      for (const auto& [layer, set] : sorted) {
        Json entry = Json::object();
        entry.set("layer", Json::integer(layer));
        entry.set("mul", Json::number(set.mul_fraction()));
        entry.set("add", Json::number(set.add_fraction()));
        entry.set("salt", Json::unsigned_integer(set.salt()));
        prot.push(std::move(entry));
      }
      p.set("protection", std::move(prot));
    }
    // Only non-default fault models travel: omitting the field for the
    // builtin flip@op keeps the wire bytes (and old-daemon compatibility)
    // identical to the pre-registry protocol.
    if (!point.fault.model.is_default()) {
      p.set("fault_model", Json::str(point.fault.model.to_string()));
    }
    p.set("policy", Json::str(policy_name(point.policy)));
    p.set("seed", Json::unsigned_integer(point.seed));
    p.set("trials", Json::integer(point.trials));
    p.set("reuse_golden", Json::boolean(point.reuse_golden));
    p.set("max_expected_flips", Json::number(point.max_expected_flips));
    points.push(std::move(p));
  }
  j.set("points", std::move(points));
  return j;
}

bool decode_campaign_spec(const Json& json, CampaignSpec* spec,
                          std::string* error) {
  if (!json.is_object()) return fail(error, "spec must be an object");
  *spec = CampaignSpec();
  if (const Json* threads = json.find("threads");
      threads != nullptr &&
      !read_int(*threads, "spec.threads", 0, &spec->threads, error)) {
    return false;
  }
  if (const Json* capacity = json.find("golden_capacity");
      capacity != nullptr && !read_uint(*capacity, "spec.golden_capacity",
                                        &spec->golden_capacity, error)) {
    return false;
  }
  if (const Json* store = json.find("store")) {
    if (!store->is_object()) return fail(error, "spec.store not an object");
    spec->store.dir =
        store->find("dir") != nullptr ? store->find("dir")->as_string() : "";
    if (const Json* journal = store->find("journal")) {
      spec->store.journal = journal->as_bool(true);
    }
    if (const Json* spill = store->find("spill_goldens")) {
      spec->store.spill_goldens = spill->as_bool(true);
    }
    if (const Json* budget = store->find("golden_disk_budget");
        budget != nullptr &&
        !read_uint(*budget, "store.golden_disk_budget",
                   &spec->store.golden_disk_budget, error)) {
      return false;
    }
    if (const Json* cells = store->find("cell_budget");
        cells != nullptr && !read_uint(*cells, "store.cell_budget",
                                       &spec->store.cell_budget, error)) {
      return false;
    }
  }
  const Json* points = json.find("points");
  if (points == nullptr || !points->is_array() ||
      points->elements().empty()) {
    return fail(error, "spec.points missing or empty");
  }
  for (const Json& p : points->elements()) {
    if (!p.is_object()) return fail(error, "spec.points entry not an object");
    CampaignPoint point;
    if (const Json* ber = p.find("ber")) {
      point.fault.ber = ber->as_double(0.0);
    }
    if (point.fault.ber < 0.0 || point.fault.ber > 1.0) {
      return fail(error, "point.ber out of [0, 1]");
    }
    const std::string mode =
        p.find("mode") != nullptr ? p.find("mode")->as_string() : "op";
    if (mode == "op") point.fault.mode = InjectionMode::kOpLevel;
    else if (mode == "neuron") point.fault.mode = InjectionMode::kNeuronLevel;
    else return fail(error, "point.mode must be op|neuron");
    if (const Json* kind = p.find("only_kind")) {
      const std::string name = kind->as_string();
      if (name == "mul") point.fault.only_kind = OpKind::kMul;
      else if (name == "add") point.fault.only_kind = OpKind::kAdd;
      else return fail(error, "point.only_kind must be mul|add");
    }
    if (const Json* layer = p.find("fault_free_layer");
        layer != nullptr && !read_int(*layer, "point.fault_free_layer", -1,
                                      &point.fault.fault_free_layer, error)) {
      return false;
    }
    if (const Json* prot = p.find("protection")) {
      if (!prot->is_array()) return fail(error, "point.protection not array");
      for (const Json& entry : prot->elements()) {
        const Json* layer = entry.find("layer");
        if (layer == nullptr) return fail(error, "protection.layer missing");
        int index = 0;
        if (!read_int(*layer, "protection.layer", 0, &index, error)) {
          return false;
        }
        ProtectionSet set(
            entry.find("mul") != nullptr ? entry.find("mul")->as_double(0)
                                         : 0.0,
            entry.find("add") != nullptr ? entry.find("add")->as_double(0)
                                         : 0.0);
        if (const Json* salt = entry.find("salt")) {
          std::uint64_t value = 0;
          if (!read_uint(*salt, "protection.salt", &value, error)) {
            return false;
          }
          set = ProtectionSet(set.mul_fraction(), set.add_fraction(), value);
        }
        point.fault.protection[index] = set;
      }
    }
    // The wire default is the BUILTIN flip@op, not the submitting
    // process's WINOFAULT_FAULT_MODEL: a daemon must execute the spec the
    // client sent, never reinterpret it under its own environment.
    point.fault.model = FaultModelSpec{};
    if (const Json* model = p.find("fault_model")) {
      std::string parse_error;
      const std::optional<FaultModelSpec> parsed =
          FaultModelSpec::parse(model->as_string(), &parse_error);
      if (!parsed.has_value()) {
        return fail(error, "point.fault_model: " + parse_error);
      }
      point.fault.model = *parsed;
    }
    const std::string policy =
        p.find("policy") != nullptr ? p.find("policy")->as_string() : "direct";
    if (!parse_policy(policy, &point.policy)) {
      return fail(error, "point.policy must be direct|winograd2|winograd4");
    }
    if (const Json* seed = p.find("seed");
        seed != nullptr &&
        !read_uint(*seed, "point.seed", &point.seed, error)) {
      return false;
    }
    if (const Json* trials = p.find("trials");
        trials != nullptr &&
        !read_int(*trials, "point.trials", 1, &point.trials, error)) {
      return false;
    }
    if (const Json* reuse = p.find("reuse_golden")) {
      point.reuse_golden = reuse->as_bool(true);
    }
    if (const Json* flips = p.find("max_expected_flips")) {
      point.max_expected_flips = flips->as_double(20000.0);
    }
    spec->points.push_back(std::move(point));
  }
  return true;
}

Json encode_campaign_result(const CampaignResult& result) {
  Json j = Json::object();
  Json points = Json::array();
  for (const EvalResult& r : result.points) {
    Json p = Json::object();
    p.set("accuracy", Json::number(r.accuracy));
    p.set("avg_flips", Json::number(r.avg_flips));
    p.set("images", Json::integer(r.images));
    points.push(std::move(p));
  }
  j.set("points", std::move(points));
  const CampaignStats& s = result.stats;
  Json stats = Json::object();
  stats.set("golden_builds", Json::integer(s.golden_builds));
  stats.set("golden_hits", Json::integer(s.golden_hits));
  stats.set("golden_evictions", Json::integer(s.golden_evictions));
  stats.set("short_circuited_points", Json::integer(s.short_circuited_points));
  stats.set("inferences", Json::integer(s.inferences));
  stats.set("journal_cells_loaded", Json::integer(s.journal_cells_loaded));
  stats.set("journal_cells_written", Json::integer(s.journal_cells_written));
  stats.set("cells_deferred", Json::integer(s.cells_deferred));
  stats.set("golden_spills", Json::integer(s.golden_spills));
  stats.set("golden_restores", Json::integer(s.golden_restores));
  stats.set("golden_flushed", Json::integer(s.golden_flushed));
  j.set("stats", std::move(stats));
  return j;
}

bool decode_campaign_result(const Json& json, CampaignResult* result,
                            std::string* error) {
  if (!json.is_object()) return fail(error, "result must be an object");
  *result = CampaignResult();
  const Json* points = json.find("points");
  if (points == nullptr || !points->is_array()) {
    return fail(error, "result.points missing");
  }
  for (const Json& p : points->elements()) {
    EvalResult r;
    if (const Json* accuracy = p.find("accuracy")) {
      r.accuracy = accuracy->as_double(0.0);
    }
    if (const Json* flips = p.find("avg_flips")) {
      r.avg_flips = flips->as_double(0.0);
    }
    if (const Json* images = p.find("images");
        images != nullptr &&
        !read_int(*images, "result.images", 0, &r.images, error)) {
      return false;
    }
    result->points.push_back(r);
  }
  if (const Json* stats = json.find("stats")) {
    CampaignStats& s = result->stats;
    const auto get = [&](const char* name) -> std::int64_t {
      const Json* field = stats->find(name);
      return field != nullptr ? field->as_int(0) : 0;
    };
    s.golden_builds = get("golden_builds");
    s.golden_hits = get("golden_hits");
    s.golden_evictions = get("golden_evictions");
    s.short_circuited_points = get("short_circuited_points");
    s.inferences = get("inferences");
    s.journal_cells_loaded = get("journal_cells_loaded");
    s.journal_cells_written = get("journal_cells_written");
    s.cells_deferred = get("cells_deferred");
    s.golden_spills = get("golden_spills");
    s.golden_restores = get("golden_restores");
    s.golden_flushed = get("golden_flushed");
  }
  return true;
}

Json make_error_response(const std::string& error) {
  Json j = Json::object();
  j.set("ok", Json::boolean(false));
  j.set("error", Json::str(error));
  return j;
}

Json make_error_response(const std::string& error, const std::string& code) {
  Json j = make_error_response(error);
  j.set("code", Json::str(code));
  return j;
}

Json make_ok_response() {
  Json j = Json::object();
  j.set("ok", Json::boolean(true));
  return j;
}

}  // namespace winofault
