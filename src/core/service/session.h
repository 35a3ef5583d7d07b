// Warm per-environment state of the resident campaign service. A session
// owns everything that used to be cold-start cost for every figure
// process: the built-and-calibrated Network, its teacher Dataset and one
// CampaignRunner, which caches the env hash and keeps its goldens between
// the session's submissions (the runner's GoldenLru). The runner also
// keeps a stored submission's journal and golden store open for the next
// submission against the same directory (the daemon is their sole
// mutator, which is exactly the runner's contract). The LRU holds no
// store: a stored submission saves each golden it uses to its own store as
// it runs, so evicting a session or killing the daemon loses only RAM
// warmth.
//
// Sessions are keyed by model_env_key: golden image keys are only
// meaningful within one campaign environment, so each env's session has
// its own runner and with it its own LRU. One golden per image serves
// every policy.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "core/campaign/campaign.h"
#include "core/service/protocol.h"
#include "core/service/scheduler.h"
#include "nn/dataset.h"
#include "nn/network.h"

namespace winofault {

// Builds the (network, dataset) a ModelEnv describes. Deterministic — the
// daemon-side build must hash identically to the client-side one or
// journaled cells and golden shards could never be shared. Returns false
// with `error` set on an unknown model.
using ModelEnvBuilder = std::function<bool(const ModelEnv& env, Network* net,
                                           Dataset* data,
                                           std::string* error)>;

// The production builder: zoo entry + teacher dataset (nn/models/zoo.h).
// The bench drivers' make_model builds through it too, so a client and
// its daemon build one environment by one recipe.
ModelEnvBuilder default_model_env_builder();

class ServiceSession {
 public:
  ServiceSession(ModelEnv env, Network net, Dataset data);

  // Executes one job's campaign on the session's runner, whose goldens
  // earlier submissions left warm: rewrites the spec server-side
  // (progress -> job, cancel flag, dist stripped). Safe to call from
  // several executors concurrently — concurrent campaigns share the
  // runner's goldens and the process thread pool via parallel_for.
  CampaignResult run(ServiceJob& job);

  const ModelEnv& env() const { return env_; }
  std::uint64_t env_hash() const { return runner_.env_hash(); }

 private:
  ModelEnv env_;
  Network net_;
  Dataset data_;
  CampaignRunner runner_;
};

// Session registry with LRU eviction: at most `max_sessions` warm
// environments; the least recently used idle session is dropped to admit
// a new one (sessions running a job are never evicted). `golden_capacity`
// is unused: each session's runner grows its LRU to every campaign's own
// working set. The parameter stays only because the repository benchmark
// (perfbench's service probe) passes it.
class SessionCache {
 public:
  SessionCache(ModelEnvBuilder builder, std::size_t max_sessions,
               std::size_t golden_capacity);

  // Returns the warm session for `env`, building network + dataset on
  // first use (expensive — amortized across every later submission).
  // Builds serialize on the cache lock; nullptr + `error` on failure.
  std::shared_ptr<ServiceSession> get_or_build(const ModelEnv& env,
                                               std::string* error);

  // Residency hardening: evicts every *idle* session (use_count == 1 —
  // no executor holds it) untouched for at least `ttl_ms`. Its stored
  // submissions already saved their goldens, so warmth degrades to the
  // disk tier rather than vanishing. Returns the number evicted. The
  // daemon's housekeeping thread calls this so a long-idle daemon releases
  // paper-scale network + golden memory instead of holding it forever.
  std::size_t evict_idle(std::int64_t ttl_ms);

  std::size_t size() const;

 private:
  struct Slot {
    std::shared_ptr<ServiceSession> session;
    std::uint64_t last_used = 0;
    std::chrono::steady_clock::time_point last_touch;
  };

  ModelEnvBuilder builder_;
  std::size_t max_sessions_;
  mutable std::mutex mu_;
  std::uint64_t clock_ = 0;
  std::unordered_map<std::string, Slot> sessions_;
};

}  // namespace winofault
