// Wire protocol of the resident campaign service (winofaultd): newline-
// delimited JSON over a Unix-domain socket. Every request and response is
// one JSON object on one line; long-running requests (submit/results with
// "wait") stream interim `{"event":"progress",...}` lines before the final
// object. See README.md in this directory for the full grammar.
//
// Values go through common/json.h, whose exact numeric round-trips make a
// daemon-submitted campaign byte-identical to a local run.
#pragma once

#include <cstdint>
#include <string>

#include "common/json.h"
#include "core/campaign/campaign.h"
#include "tensor/dtype.h"

namespace winofault {

// The (model, dataset) environment of a submission — everything the daemon
// needs to rebuild the exact Network + teacher Dataset a bench client
// built via make_model: zoo entry, dtype, resolved width multiplier,
// image count, and the master seed. Building is deterministic, so client
// and daemon environments hash identically (campaign_env_hash) and
// results are bit-identical.
struct ModelEnv {
  std::string model;            // zoo name ("vgg19", ...)
  DType dtype = DType::kInt16;
  int images = 10;
  std::uint64_t seed = 2024;
  double width = 0.0;           // channel multiplier; 0 => zoo default

  // Client-side campaign_env_hash of the (network, dataset) this env is
  // believed to rebuild; 0 = unchecked. The daemon verifies its own build
  // hashes identically before running anything, so a recipe divergence
  // (version skew, a client submitting a foreign dataset) fails the job
  // loudly instead of returning subtly different numbers.
  std::uint64_t env_hash = 0;
};

// Canonical registry key: equal envs produce equal keys.
std::string model_env_key(const ModelEnv& env);

Json encode_model_env(const ModelEnv& env);
bool decode_model_env(const Json& json, ModelEnv* env, std::string* error);

// CampaignSpec codec. Serialized: points (full fault configuration),
// threads, golden_capacity (it bounds the session runner's LRU only until
// a larger campaign grows it), and the store options. NOT serialized —
// meaningless across the process boundary: dist (daemon campaigns are
// single-process), on_progress / cancel (the daemon wires its own).
// decode leaves those at their defaults.
Json encode_campaign_spec(const CampaignSpec& spec);
bool decode_campaign_spec(const Json& json, CampaignSpec* spec,
                          std::string* error);

// CampaignResult codec (points parallel to the submitted spec + stats).
Json encode_campaign_result(const CampaignResult& result);
bool decode_campaign_result(const Json& json, CampaignResult* result,
                            std::string* error);

// Convenience wrappers shared by server and client. The two-argument form
// adds a machine-readable "code" field ("overloaded", "draining", ...) so
// clients can branch on the failure class — e.g. back off and retry on
// admission-control rejection — without parsing the human-facing text.
Json make_error_response(const std::string& error);
Json make_error_response(const std::string& error, const std::string& code);
Json make_ok_response();

}  // namespace winofault
