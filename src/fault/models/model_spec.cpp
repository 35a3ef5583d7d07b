#include "fault/models/model_spec.h"

#include <cctype>
#include <cstdlib>

#include "common/logging.h"

namespace winofault {
namespace {

bool fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

bool parse_kind(const std::string& token, FaultModelKind* kind,
                std::string* error) {
  if (token == "flip") {
    *kind = FaultModelKind::kFlip;
  } else if (token == "stuck0") {
    *kind = FaultModelKind::kStuck0;
  } else if (token == "stuck1") {
    *kind = FaultModelKind::kStuck1;
  } else if (token == "toggle") {
    *kind = FaultModelKind::kToggle;
  } else {
    return fail(error, "unknown fault kind '" + token +
                           "' (expected flip|stuck0|stuck1|toggle)");
  }
  return true;
}

bool parse_target(const std::string& token, FaultTarget* target,
                  std::string* error) {
  if (token == "op") {
    *target = FaultTarget::kOp;
  } else if (token == "weight") {
    *target = FaultTarget::kWeight;
  } else if (token == "accum") {
    *target = FaultTarget::kAccum;
  } else {
    return fail(error, "unknown fault target '" + token +
                           "' (expected op|weight|accum)");
  }
  return true;
}

bool validate(const FaultModelSpec& spec, bool has_arg, std::string* error) {
  if (spec.target == FaultTarget::kOp) {
    if (spec.kind == FaultModelKind::kStuck0 ||
        spec.kind == FaultModelKind::kStuck1) {
      return fail(error,
                  "stuck-at faults need a storage cell to stick; use "
                  "@weight or @accum");
    }
    if (spec.persistence == FaultPersistence::kPermanent) {
      return fail(error,
                  "@op faults are transient by nature; permanent models "
                  "target @weight or @accum");
    }
    if (has_arg) {
      return fail(error, "@op models take no argument");
    }
    return true;
  }
  // @weight / @accum: any silicon kind, either persistence. An arg is the
  // permanent-overlay defect probability; transient models draw from BER.
  if (has_arg) {
    if (spec.persistence != FaultPersistence::kPermanent) {
      return fail(error,
                  "transient silicon models draw from the point's BER and "
                  "take no argument");
    }
    if (!(spec.arg > 0.0 && spec.arg <= 1.0)) {
      return fail(error,
                  "permanent defect probability must be in (0, 1]");
    }
  }
  return true;
}

}  // namespace

const char* fault_kind_name(FaultModelKind kind) {
  switch (kind) {
    case FaultModelKind::kFlip:
      return "flip";
    case FaultModelKind::kStuck0:
      return "stuck0";
    case FaultModelKind::kStuck1:
      return "stuck1";
    case FaultModelKind::kToggle:
      return "toggle";
  }
  return "?";
}

const char* fault_target_name(FaultTarget target) {
  switch (target) {
    case FaultTarget::kOp:
      return "op";
    case FaultTarget::kWeight:
      return "weight";
    case FaultTarget::kAccum:
      return "accum";
  }
  return "?";
}

std::optional<FaultModelSpec> FaultModelSpec::parse(const std::string& spec,
                                                    std::string* error) {
  FaultModelSpec model;
  std::size_t pos = 0;
  const auto ident = [&]() {
    std::size_t start = pos;
    while (pos < spec.size() &&
           (std::isalnum(static_cast<unsigned char>(spec[pos])) != 0)) {
      ++pos;
    }
    return spec.substr(start, pos - start);
  };

  const std::string kind_token = ident();
  if (kind_token.empty()) {
    fail(error, "empty fault-model spec (expected kind[(arg)]@target"
                "[#persistence])");
    return std::nullopt;
  }
  if (!parse_kind(kind_token, &model.kind, error)) return std::nullopt;

  bool has_arg = false;
  if (pos < spec.size() && spec[pos] == '(') {
    ++pos;
    const std::size_t close = spec.find(')', pos);
    if (close == std::string::npos) {
      fail(error, "unterminated '(' in fault-model spec");
      return std::nullopt;
    }
    const std::string arg_token = spec.substr(pos, close - pos);
    char* end = nullptr;
    model.arg = std::strtod(arg_token.c_str(), &end);
    if (arg_token.empty() || end == nullptr || *end != '\0') {
      fail(error, "malformed numeric argument '" + arg_token + "'");
      return std::nullopt;
    }
    has_arg = true;
    pos = close + 1;
  }

  if (pos >= spec.size() || spec[pos] != '@') {
    fail(error, "expected '@target' after fault kind in '" + spec + "'");
    return std::nullopt;
  }
  ++pos;
  const std::string target_token = ident();
  if (!parse_target(target_token, &model.target, error)) return std::nullopt;

  if (pos < spec.size() && spec[pos] == '#') {
    ++pos;
    const std::string persist = spec.substr(pos);
    pos = spec.size();
    if (persist == "perm" || persist == "permanent") {
      model.persistence = FaultPersistence::kPermanent;
    } else if (persist == "trans" || persist == "transient") {
      model.persistence = FaultPersistence::kTransient;
    } else {
      fail(error, "unknown persistence '" + persist +
                      "' (expected perm|permanent|trans|transient)");
      return std::nullopt;
    }
  }
  if (pos != spec.size()) {
    fail(error, "trailing garbage '" + spec.substr(pos) +
                    "' in fault-model spec");
    return std::nullopt;
  }
  if (!validate(model, has_arg, error)) return std::nullopt;
  return model;
}

std::string FaultModelSpec::to_string() const {
  std::string out = fault_kind_name(kind);
  if (arg != 0.0) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "(%.17g)", arg);
    out += buf;
  }
  out += '@';
  out += fault_target_name(target);
  if (persistence == FaultPersistence::kPermanent) out += "#perm";
  return out;
}

std::string FaultModelSpec::slug() const {
  std::string out = fault_kind_name(kind);
  out += '_';
  out += fault_target_name(target);
  if (persistence == FaultPersistence::kPermanent) out += "_perm";
  return out;
}

const FaultModelSpec& FaultModelSpec::process_default() {
  static const FaultModelSpec model = [] {
    const char* env = std::getenv("WINOFAULT_FAULT_MODEL");
    if (env == nullptr || *env == '\0') return FaultModelSpec{};
    std::string error;
    const std::optional<FaultModelSpec> parsed =
        FaultModelSpec::parse(env, &error);
    if (!parsed.has_value()) {
      WF_WARN << "WINOFAULT_FAULT_MODEL '" << env << "' ignored: " << error;
      return FaultModelSpec{};
    }
    return *parsed;
  }();
  return model;
}

}  // namespace winofault
