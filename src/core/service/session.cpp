#include "core/service/session.h"

#include <chrono>
#include <utility>

#include "common/logging.h"
#include "common/telemetry/events.h"
#include "nn/models/zoo.h"

namespace winofault {

ModelEnvBuilder default_model_env_builder() {
  return [](const ModelEnv& env, Network* net, Dataset* data,
            std::string* error) {
    const ZooEntry* entry = nullptr;
    for (const ZooEntry& candidate : model_zoo()) {
      if (candidate.name == env.model) {
        entry = &candidate;
        break;
      }
    }
    if (entry == nullptr) {
      if (error != nullptr) *error = "unknown model '" + env.model + "'";
      return false;
    }
    // The exact recipe of bench make_model: any divergence would change
    // campaign_env_hash and silently forfeit every warm asset.
    ZooConfig config;
    config.dtype = env.dtype;
    config.width = env.width > 0 ? env.width : entry->default_width;
    config.seed = env.seed;
    *net = entry->build(config);
    *data = make_teacher_dataset(*net, env.images, entry->num_classes,
                                 entry->clean_accuracy, env.seed ^ 0xd5);
    return true;
  };
}

ServiceSession::ServiceSession(ModelEnv env, Network net, Dataset data)
    : env_(std::move(env)),
      net_(std::move(net)),
      data_(std::move(data)),
      runner_(net_, data_) {}

CampaignResult ServiceSession::run(ServiceJob& job) {
  CampaignSpec spec = job.spec;
  // Server-side rewiring. None of this can change results: dist is
  // stripped because a daemon campaign is one process.
  spec.store.dist = DistOptions{};
  spec.cancel = &job.cancel;
  // The runner reports every finished cell from every worker; publishing
  // each one would serialize the pool on the job mutex. Throttle to ~40Hz
  // — always letting the first (totals) and last (completion) snapshots
  // through — which is far above any client's display rate and below any
  // cell's execution cost worth streaming.
  const auto last_publish_ms =
      std::make_shared<std::atomic<std::int64_t>>(-1000000);
  spec.on_progress = [&job, last_publish_ms](const CampaignProgress& p) {
    const std::int64_t now_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count();
    std::int64_t last = last_publish_ms->load(std::memory_order_relaxed);
    const bool boundary =
        p.cells_done == 0 ||
        p.cells_done + p.cells_deferred >= p.cells_total;
    if (!boundary && (now_ms - last < 25 ||
                      !last_publish_ms->compare_exchange_strong(last,
                                                                now_ms))) {
      return;
    }
    if (boundary) last_publish_ms->store(now_ms);
    job.update_progress(p);
  };
  return runner_.run(spec);
}

SessionCache::SessionCache(ModelEnvBuilder builder, std::size_t max_sessions,
                           std::size_t /*golden_capacity*/)
    : builder_(std::move(builder)),
      max_sessions_(std::max<std::size_t>(max_sessions, 1)) {}

std::shared_ptr<ServiceSession> SessionCache::get_or_build(
    const ModelEnv& env, std::string* error) {
  const std::string key = model_env_key(env);
  std::lock_guard<std::mutex> lock(mu_);
  ++clock_;
  if (const auto it = sessions_.find(key); it != sessions_.end()) {
    it->second.last_used = clock_;
    it->second.last_touch = std::chrono::steady_clock::now();
    return it->second.session;
  }
  // Admit: evict the least recently used *idle* session first (a session
  // running a job is shared with its executor, use_count > 1).
  while (sessions_.size() >= max_sessions_) {
    auto victim = sessions_.end();
    for (auto it = sessions_.begin(); it != sessions_.end(); ++it) {
      if (it->second.session.use_count() > 1) continue;
      if (victim == sessions_.end() ||
          it->second.last_used < victim->second.last_used) {
        victim = it;
      }
    }
    if (victim == sessions_.end()) break;  // everything busy: over-admit
    WF_INFO << "service: evicting warm session " << victim->first;
    if (telemetry::events_enabled()) {
      telemetry::emit_event("session_evicted",
                            {{"env", victim->first}, {"reason", "lru"}});
    }
    sessions_.erase(victim);
  }
  // Built under the lock: a concurrent submission for the same env must
  // not build a second copy (the build is the expensive part the daemon
  // exists to amortize). Unrelated envs briefly serialize here — their
  // campaigns still run concurrently.
  Network net("pending", env.dtype);
  Dataset data;
  if (!builder_(env, &net, &data, error)) return nullptr;
  auto session = std::make_shared<ServiceSession>(env, std::move(net),
                                                  std::move(data));
  sessions_[key] = Slot{session, clock_, std::chrono::steady_clock::now()};
  return session;
}

std::size_t SessionCache::evict_idle(std::int64_t ttl_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t evicted = 0;
  const auto now = std::chrono::steady_clock::now();
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    // use_count > 1: an executor still holds the session — a running job
    // pins its environment warm no matter how old the last get_or_build
    // was. (The touch happens at fetch time, so a session whose only job
    // just finished may look older than it is; the cost of that
    // over-eager eviction is one rebuild, paid only by the next
    // submission of an env idle past its TTL anyway.)
    const bool idle =
        it->second.session.use_count() == 1 &&
        std::chrono::duration_cast<std::chrono::milliseconds>(
            now - it->second.last_touch)
                .count() >= ttl_ms;
    if (!idle) {
      ++it;
      continue;
    }
    WF_INFO << "service: idle TTL evicting warm session " << it->first;
    if (telemetry::events_enabled()) {
      telemetry::emit_event("session_evicted",
                            {{"env", it->first}, {"reason", "idle"}});
    }
    it = sessions_.erase(it);
    ++evicted;
  }
  return evicted;
}

std::size_t SessionCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sessions_.size();
}

}  // namespace winofault
