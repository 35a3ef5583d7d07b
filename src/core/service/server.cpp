#include "core/service/server.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "common/hash.h"
#include "common/iofault/iofault.h"
#include "common/logging.h"
#include "common/telemetry/events.h"
#include "common/telemetry/telemetry.h"

namespace winofault {
namespace {

// Service-tier job counters: incremented alongside the ServerStats fields
// (same sites, same values) so the `metrics` verb exposes what stats()
// already tracks without widening any lock.
telemetry::Counter& jobs_metric(const char* which, const char* help) {
  return telemetry::counter(std::string("winofault_service_jobs_") + which +
                                "_total",
                            help);
}

// Writes one protocol line; false when the peer is gone (streamers stop,
// the job itself keeps running). MSG_NOSIGNAL: a dead client must not
// SIGPIPE the daemon. `tag` is the iofault target ("daemon:<socket>") so a
// chaos schedule can drop the server side of a conversation specifically.
bool send_line(int fd, const Json& message, const std::string& tag) {
  std::string line = message.dump();
  line.push_back('\n');
  std::size_t sent = 0;
  while (sent < line.size()) {
    const ssize_t n = iofault::checked_send(fd, line.data() + sent,
                                            line.size() - sent, tag);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

ServiceServer::ServiceServer(ServerOptions options)
    : options_(std::move(options)),
      sock_tag_("daemon:" + options_.socket_path),
      scheduler_(options_.max_queued_per_client),
      sessions_(options_.env_builder != nullptr
                    ? options_.env_builder
                    : default_model_env_builder(),
                options_.max_sessions, options_.golden_capacity),
      history_(options_.history_depth, options_.history_interval_s) {
  if (options_.concurrent_jobs < 1) options_.concurrent_jobs = 1;
}

ServiceServer::~ServiceServer() {
  if (started_ && !joined_) {
    request_drain();
    wait();
  }
}

bool ServiceServer::start(std::string* error) {
  const auto fail = [&](const std::string& message) {
    if (error != nullptr) *error = message;
    return false;
  };
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (options_.socket_path.empty() ||
      options_.socket_path.size() >= sizeof(addr.sun_path)) {
    return fail("socket path empty or longer than sun_path");
  }
  std::strncpy(addr.sun_path, options_.socket_path.c_str(),
               sizeof(addr.sun_path) - 1);

  // A socket file may be a live daemon or a stale leftover of a killed
  // one. Probe with a connect: accepting means live (refuse to displace
  // it), anything else means stale (replace it).
  const int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (probe >= 0) {
    if (::connect(probe, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      ::close(probe);
      return fail("another daemon is serving " + options_.socket_path);
    }
    ::close(probe);
  }
  ::unlink(options_.socket_path.c_str());

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return fail("socket(): " + std::string(strerror(errno)));
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return fail("bind(" + options_.socket_path +
                "): " + std::string(strerror(errno)));
  }
  if (::listen(listen_fd_, 64) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return fail("listen(): " + std::string(strerror(errno)));
  }

  started_ = true;
  accept_thread_ = std::thread([this] { accept_loop(); });
  monitor_thread_ = std::thread([this] { monitor_loop(); });
  if (options_.session_idle_ttl_ms > 0) {
    housekeeping_thread_ = std::thread([this] { housekeeping_loop(); });
  }
  if (options_.history_depth > 0) {
    sampler_thread_ = std::thread([this] { sampler_loop(); });
  }
  executors_.reserve(static_cast<std::size_t>(options_.concurrent_jobs));
  for (int i = 0; i < options_.concurrent_jobs; ++i) {
    executors_.emplace_back([this] { executor_loop(); });
  }
  WF_INFO << "winofaultd: serving " << options_.socket_path << " ("
          << options_.concurrent_jobs << " concurrent campaigns, "
          << options_.max_sessions << " warm sessions)";
  return true;
}

void ServiceServer::request_drain() {
  bool expected = false;
  if (!draining_.compare_exchange_strong(expected, true)) return;
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  lifecycle_cv_.notify_all();
}

void ServiceServer::wait() {
  if (!started_) return;
  {
    std::unique_lock<std::mutex> lock(lifecycle_mu_);
    lifecycle_cv_.wait(lock, [this] { return drained_.load(); });
    if (joined_) return;  // another wait() already cleaned up
    joined_ = true;
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  if (monitor_thread_.joinable()) monitor_thread_.join();
  if (housekeeping_thread_.joinable()) housekeeping_thread_.join();
  if (sampler_thread_.joinable()) sampler_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // Unblock connection handlers parked in recv; whoever exchanges the fd
  // first owns shutdown/close.
  std::vector<int> claimed;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (const std::unique_ptr<Conn>& conn : connections_) {
      const int fd = conn->fd.exchange(-1);
      if (fd >= 0) {
        ::shutdown(fd, SHUT_RDWR);
        claimed.push_back(fd);
      }
    }
  }
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (const std::unique_ptr<Conn>& conn : connections_) {
      if (conn->thread.joinable()) conn->thread.join();
    }
  }
  for (const int fd : claimed) ::close(fd);
  ::unlink(options_.socket_path.c_str());
}

ServerStats ServiceServer::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

void ServiceServer::accept_loop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (draining_.load()) break;  // listen socket shut down by drain
      // Transient conditions must not kill the accept loop — a daemon
      // that goes deaf after one aborted handshake (ECONNABORTED) or a
      // momentary fd-table spike (EMFILE/ENFILE) cannot even be drained
      // over its socket anymore.
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno == EMFILE || errno == ENFILE) {
        reap_finished_connections();
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        continue;
      }
      WF_WARN << "winofaultd: accept failed (" << strerror(errno)
              << "); no further connections will be served";
      break;
    }
    if (draining_.load()) {
      send_line(fd, make_error_response("draining", "draining"), sock_tag_);
      ::close(fd);
      continue;
    }
    reap_finished_connections();
    std::lock_guard<std::mutex> lock(conn_mu_);
    connections_.push_back(std::make_unique<Conn>());
    Conn* conn = connections_.back().get();
    conn->fd.store(fd);
    conn->thread = std::thread([this, conn] { handle_connection(conn); });
  }
  // listen_fd_ itself is closed in wait(), after this thread is joined —
  // closing here would race the monitor's shutdown() on a recycled fd.
}

// Joins and discards handlers that have finished (their fd is closed and
// `done` is set). Keeps a week-long daemon's connection table bounded by
// its *live* connections instead of by every connection it ever served.
void ServiceServer::reap_finished_connections() {
  std::lock_guard<std::mutex> lock(conn_mu_);
  auto it = connections_.begin();
  while (it != connections_.end()) {
    if ((*it)->done.load()) {
      if ((*it)->thread.joinable()) (*it)->thread.join();
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

void ServiceServer::monitor_loop() {
  {
    std::unique_lock<std::mutex> lock(lifecycle_mu_);
    lifecycle_cv_.wait(lock, [this] { return draining_.load(); });
  }
  // Order matters: stop admissions first (socket + scheduler), then wait
  // for every accepted job to reach a terminal state. Stored jobs saved
  // their goldens as they ran, so nothing is left to write.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  scheduler_.drain();
  for (std::thread& executor : executors_) executor.join();
  WF_INFO << "winofaultd: drained";
  {
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    drained_.store(true);
    lifecycle_cv_.notify_all();
  }
}

void ServiceServer::housekeeping_loop() {
  // Residency hardening: periodically evict warm sessions idle past their
  // TTL, so a daemon left resident overnight releases paper-scale network
  // + golden memory instead of pinning it until drain.
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(lifecycle_mu_);
      lifecycle_cv_.wait_for(
          lock, std::chrono::milliseconds(options_.housekeeping_interval_ms),
          [this] { return draining_.load(); });
    }
    if (draining_.load()) return;
    const std::size_t evicted =
        sessions_.evict_idle(options_.session_idle_ttl_ms);
    if (evicted > 0) {
      telemetry::gauge("winofault_service_sessions_ttl_evicted",
                       "warm sessions evicted by the idle TTL since start")
          .add(static_cast<std::int64_t>(evicted));
      std::lock_guard<std::mutex> lock(stats_mu_);
      stats_.sessions_ttl_evicted += static_cast<std::int64_t>(evicted);
    }
  }
}

void ServiceServer::sampler_loop() {
  // Flight recorder: one full-registry snapshot per interval into the
  // bounded history ring. The first sample lands immediately so a freshly
  // started daemon answers `history` before the first interval elapses.
  for (;;) {
    refresh_scrape_gauges();
    HistorySample sample;
    sample.t_us = telemetry::now_us();
    sample.wall_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                         std::chrono::system_clock::now().time_since_epoch())
                         .count();
    sample.series = telemetry::snapshot();
    history_.record(std::move(sample));
    {
      std::unique_lock<std::mutex> lock(lifecycle_mu_);
      lifecycle_cv_.wait_for(
          lock, std::chrono::seconds(history_.interval_s()),
          [this] { return draining_.load(); });
    }
    if (draining_.load()) return;
  }
}

void ServiceServer::executor_loop() {
  while (std::shared_ptr<ServiceJob> job = scheduler_.next()) {
    {
      std::lock_guard<std::mutex> lock(job->mu);
      if (job->state == JobState::kCancelled) continue;
      job->state = JobState::kRunning;
      ++job->version;
      job->cv.notify_all();
    }
    if (telemetry::events_enabled()) {
      telemetry::emit_event("job_running",
                            {{"job", job->id}, {"client", job->client}});
    }
    // Queue latency = admission to queued->running, per job. The gauge
    // keeps the most recent job's latency for at-a-glance scrapes; the
    // histogram carries the distribution.
    if (job->enqueued_us > 0) {
      const std::int64_t waited = telemetry::now_us() - job->enqueued_us;
      telemetry::histogram("winofault_service_queue_latency_us",
                           "microseconds jobs spend queued before running")
          .observe(waited);
      telemetry::gauge("winofault_service_last_queue_latency_us",
                       "queue latency of the most recently started job")
          .set(waited);
    }
    // Every failure fails this job alone. The session build is inside the
    // try: a build that throws (bad_alloc on a model too large to allocate)
    // must not escape the executor and take every other client's jobs
    // down with the daemon.
    const auto fail = [&](const std::string& error) {
      job->finish(JobState::kFailed, CampaignResult(), error);
      jobs_metric("failed", "jobs that terminated with an error").add(1);
      if (telemetry::events_enabled()) {
        telemetry::emit_event("job_failed",
                              {{"job", job->id}, {"error", error}});
      }
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.jobs_failed;
    };
    try {
      std::string error;
      const std::shared_ptr<ServiceSession> session =
          sessions_.get_or_build(job->env, &error);
      if (session == nullptr) {
        fail(error);
      } else if (job->env.env_hash != 0 &&
                 job->env.env_hash != session->env_hash()) {
        // The daemon's rebuild does not hash to the client's environment:
        // running it would return numbers for a *different* experiment.
        fail("environment hash mismatch (client/daemon build skew)");
      } else {
        CampaignResult result = session->run(*job);
        const bool cancelled = job->cancel.load();
        job->finish(cancelled ? JobState::kCancelled : JobState::kDone,
                    std::move(result), cancelled ? "cancelled" : "");
        if (cancelled) {
          jobs_metric("cancelled",
                      "jobs cancelled before or during execution")
              .add(1);
        } else {
          jobs_metric("done", "jobs that ran to completion").add(1);
        }
        if (telemetry::events_enabled()) {
          telemetry::emit_event(cancelled ? "job_cancelled" : "job_done",
                                {{"job", job->id}});
        }
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++(cancelled ? stats_.jobs_cancelled : stats_.jobs_done);
      }
    } catch (const std::exception& e) {
      fail(e.what());
    }
    retire_job(job->id);
  }
}

void ServiceServer::handle_connection(Conn* conn) {
  const int fd = conn->fd.load();
  std::string buffer;
  char chunk[4096];
  for (;;) {
    const std::size_t newline = buffer.find('\n');
    if (newline == std::string::npos) {
      if (buffer.size() > options_.max_line_bytes) {
        send_line(fd, make_error_response("request line too long"), sock_tag_);
        break;
      }
      const ssize_t n = iofault::checked_recv(fd, chunk, sizeof(chunk),
                                              sock_tag_);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        break;  // peer gone or shutdown claimed the fd
      }
      buffer.append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    const std::string line = buffer.substr(0, newline);
    buffer.erase(0, newline + 1);
    if (line.empty()) continue;

    const std::optional<Json> request = Json::parse(line);
    if (!request.has_value() || !request->is_object()) {
      if (!send_line(fd, make_error_response("malformed JSON request"),
                     sock_tag_)) {
        break;
      }
      continue;
    }
    const Json* op_field = request->find("op");
    const std::string op =
        op_field != nullptr ? op_field->as_string() : std::string();
    bool alive = true;
    if (op == "submit") {
      handle_submit(fd, *request);
    } else if (op == "results") {
      handle_results(fd, *request);
    } else if (op == "status") {
      alive = send_line(fd, handle_status(*request), sock_tag_);
    } else if (op == "cancel") {
      alive = send_line(fd, handle_cancel(*request), sock_tag_);
    } else if (op == "ping") {
      alive = send_line(fd, handle_ping(), sock_tag_);
    } else if (op == "metrics") {
      alive = send_line(fd, handle_metrics(), sock_tag_);
    } else if (op == "history") {
      alive = send_line(fd, handle_history(*request), sock_tag_);
    } else if (op == "drain") {
      handle_drain(fd);
    } else {
      alive = send_line(fd, make_error_response("unknown op '" + op + "'"),
                        sock_tag_);
    }
    if (!alive) break;
  }
  const int owned = conn->fd.exchange(-1);
  if (owned >= 0) ::close(owned);
  conn->done.store(true);  // reapable from now on
}

void ServiceServer::handle_submit(int fd, const Json& request) {
  if (draining_.load()) {
    send_line(fd, make_error_response("draining", "draining"), sock_tag_);
    return;
  }
  auto job = std::make_shared<ServiceJob>();
  std::string error;
  const Json* env = request.find("env");
  if (env == nullptr || !decode_model_env(*env, &job->env, &error)) {
    send_line(fd, make_error_response("bad env: " + error), sock_tag_);
    return;
  }
  const Json* spec = request.find("spec");
  if (spec == nullptr || !decode_campaign_spec(*spec, &job->spec, &error)) {
    send_line(fd, make_error_response("bad spec: " + error), sock_tag_);
    return;
  }
  const Json* client = request.find("client");
  job->client = client != nullptr && !client->as_string().empty()
                    ? client->as_string()
                    : "anonymous";
  const Json* wait_field = request.find("wait");
  const bool wait = wait_field == nullptr || wait_field->as_bool(true);

  // Idempotent resubmit: a client retrying after a dropped connection
  // sends the exact (env, spec) it already submitted. Instead of executing
  // it twice concurrently, the daemon attaches the retry to the LIVE
  // (queued or running) job already covering that submission. Terminal
  // jobs never dedup — re-running a completed spec is the warm-tier /
  // journal-resume fast path, deliberately re-executed (bit-identical by
  // determinism), and failures/cancellations must be retryable at all.
  job->dedup_key = Fnv64()
                       .str(model_env_key(job->env))
                       .str(encode_campaign_spec(job->spec).dump())
                       .digest();
  std::vector<std::shared_ptr<ServiceJob>> candidates;
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    for (const auto& [id, existing] : jobs_) {
      if (existing->dedup_key == job->dedup_key) {
        candidates.push_back(existing);
      }
    }
  }
  for (const std::shared_ptr<ServiceJob>& existing : candidates) {
    const JobState state = existing->snapshot();
    if (state != JobState::kQueued && state != JobState::kRunning) continue;
    jobs_metric("deduped", "resubmissions answered with an in-flight job")
        .add(1);
    if (telemetry::events_enabled()) {
      telemetry::emit_event(
          "job_deduped", {{"job", existing->id}, {"client", job->client}});
    }
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.jobs_deduped;
    }
    Json accepted = Json::object();
    accepted.set("event", Json::str("accepted"));
    accepted.set("ok", Json::boolean(true));
    accepted.set("job", Json::str(existing->id));
    accepted.set("deduped", Json::boolean(true));
    if (!send_line(fd, accepted, sock_tag_)) return;
    if (wait) stream_job(fd, existing);
    return;
  }

  job->id = "j-" + std::to_string(++next_job_id_);
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    jobs_[job->id] = job;
  }
  const EnqueueResult admitted = scheduler_.enqueue(job);
  if (admitted != EnqueueResult::kAccepted) {
    {
      std::lock_guard<std::mutex> lock(jobs_mu_);
      jobs_.erase(job->id);
    }
    if (admitted == EnqueueResult::kOverloaded) {
      jobs_metric("rejected", "submissions refused by admission control")
          .add(1);
      if (telemetry::events_enabled()) {
        telemetry::emit_event("job_rejected", {{"client", job->client},
                                               {"reason", "overloaded"}});
      }
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.jobs_rejected;
      }
      send_line(fd,
                make_error_response(
                    "rejected: overloaded (client '" + job->client +
                        "' is at its queue bound)",
                    "overloaded"),
                sock_tag_);
    } else {
      send_line(fd, make_error_response("draining", "draining"), sock_tag_);
    }
    return;
  }
  jobs_metric("submitted", "jobs admitted to the scheduler").add(1);
  if (telemetry::events_enabled()) {
    telemetry::emit_event("job_submitted",
                          {{"job", job->id}, {"client", job->client}});
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.jobs_submitted;
  }
  Json accepted = Json::object();
  accepted.set("event", Json::str("accepted"));
  accepted.set("ok", Json::boolean(true));
  accepted.set("job", Json::str(job->id));
  if (!send_line(fd, accepted, sock_tag_)) return;
  if (wait) stream_job(fd, job);
}

void ServiceServer::handle_results(int fd, const Json& request) {
  const Json* id = request.find("job");
  std::shared_ptr<ServiceJob> job =
      id != nullptr ? find_job(id->as_string()) : nullptr;
  if (job == nullptr) {
    send_line(fd, make_error_response("unknown job"), sock_tag_);
    return;
  }
  const Json* wait_field = request.find("wait");
  const bool wait = wait_field == nullptr || wait_field->as_bool(true);
  if (wait) {
    stream_job(fd, job);
    return;
  }
  send_line(fd, handle_status(request), sock_tag_);
}

void ServiceServer::stream_job(int fd,
                               const std::shared_ptr<ServiceJob>& job) {
  std::uint64_t seen = 0;
  for (;;) {
    JobState state;
    CampaignProgress progress;
    CampaignResult result;
    std::string error;
    {
      std::unique_lock<std::mutex> lock(job->mu);
      // Every observable change (queued->running, progress, terminal)
      // bumps version, so waiting on it alone cannot miss a state change
      // or spin on an unchanged one.
      job->cv.wait(lock, [&] { return job->version != seen; });
      seen = job->version;
      state = job->state;
      progress = job->progress;
      if (state == JobState::kDone || state == JobState::kFailed ||
          state == JobState::kCancelled) {
        result = job->result;
        error = job->error;
      }
    }
    if (state == JobState::kDone || state == JobState::kFailed ||
        state == JobState::kCancelled) {
      Json done = Json::object();
      done.set("event", Json::str("done"));
      done.set("job", Json::str(job->id));
      done.set("ok", Json::boolean(state != JobState::kFailed));
      done.set("state", Json::str(job_state_name(state)));
      if (state == JobState::kFailed) {
        done.set("error", Json::str(error));
      } else {
        done.set("result", encode_campaign_result(result));
      }
      send_line(fd, done, sock_tag_);
      return;
    }
    Json event = Json::object();
    event.set("event", Json::str("progress"));
    event.set("job", Json::str(job->id));
    event.set("state", Json::str(job_state_name(state)));
    event.set("done", Json::integer(progress.cells_done));
    event.set("total", Json::integer(progress.cells_total));
    event.set("loaded", Json::integer(progress.cells_loaded));
    event.set("deferred", Json::integer(progress.cells_deferred));
    if (!send_line(fd, event, sock_tag_)) return;  // client gone; job keeps running
  }
}

Json ServiceServer::handle_status(const Json& request) {
  const Json* id = request.find("job");
  std::shared_ptr<ServiceJob> job =
      id != nullptr ? find_job(id->as_string()) : nullptr;
  if (job == nullptr) return make_error_response("unknown job");
  CampaignProgress progress;
  JobState state;
  CampaignResult result;
  std::string error;
  {
    std::lock_guard<std::mutex> lock(job->mu);
    state = job->state;
    progress = job->progress;
    result = job->result;
    error = job->error;
  }
  Json response = make_ok_response();
  response.set("job", Json::str(job->id));
  response.set("state", Json::str(job_state_name(state)));
  response.set("done", Json::integer(progress.cells_done));
  response.set("total", Json::integer(progress.cells_total));
  response.set("loaded", Json::integer(progress.cells_loaded));
  response.set("deferred", Json::integer(progress.cells_deferred));
  if (state == JobState::kDone || state == JobState::kCancelled) {
    response.set("result", encode_campaign_result(result));
  } else if (state == JobState::kFailed) {
    response.set("error", Json::str(error));
  }
  return response;
}

Json ServiceServer::handle_cancel(const Json& request) {
  const Json* id = request.find("job");
  std::shared_ptr<ServiceJob> job =
      id != nullptr ? find_job(id->as_string()) : nullptr;
  if (job == nullptr) return make_error_response("unknown job");
  job->cancel.store(true);
  JobState state;
  bool cancelled_queued = false;
  {
    std::lock_guard<std::mutex> lock(job->mu);
    if (job->state == JobState::kQueued) {
      // Never started: terminal immediately (the scheduler discards it).
      job->state = JobState::kCancelled;
      job->error = "cancelled";
      ++job->version;
      job->cv.notify_all();
      cancelled_queued = true;
    }
    state = job->state;
  }
  if (cancelled_queued) {
    retire_job(job->id);
    jobs_metric("cancelled", "jobs cancelled before or during execution")
        .add(1);
    if (telemetry::events_enabled()) {
      telemetry::emit_event("job_cancelled", {{"job", job->id}});
    }
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.jobs_cancelled;
  }
  Json response = make_ok_response();
  response.set("job", Json::str(job->id));
  response.set("state", Json::str(job_state_name(state)));
  return response;
}

Json ServiceServer::handle_ping() {
  Json response = make_ok_response();
  response.set("pid", Json::integer(static_cast<std::int64_t>(::getpid())));
  response.set("queued",
               Json::integer(static_cast<std::int64_t>(scheduler_.queued())));
  response.set("sessions",
               Json::integer(static_cast<std::int64_t>(sessions_.size())));
  response.set("draining", Json::boolean(draining_.load()));
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    response.set("jobs_tracked",
                 Json::integer(static_cast<std::int64_t>(jobs_.size())));
  }
  const ServerStats snapshot = stats();
  response.set("jobs_deduped", Json::integer(snapshot.jobs_deduped));
  response.set("jobs_rejected", Json::integer(snapshot.jobs_rejected));
  response.set("sessions_ttl_evicted",
               Json::integer(snapshot.sessions_ttl_evicted));
  return response;
}

void ServiceServer::refresh_scrape_gauges() {
  // Point-in-time gauges: sampled on demand rather than maintained
  // incrementally, so a scrape (or history sample) always reflects the
  // daemon's state at the moment of the request. Everything else in the
  // exposition (counters, histograms) is maintained at the instrumented
  // sites across all five tiers.
  telemetry::gauge("winofault_service_jobs_queued",
                   "jobs waiting in the scheduler")
      .set(static_cast<std::int64_t>(scheduler_.queued()));
  telemetry::gauge("winofault_service_sessions_active",
                   "warm model sessions resident in the daemon")
      .set(static_cast<std::int64_t>(sessions_.size()));
  telemetry::gauge("winofault_service_draining",
                   "1 while the daemon is draining, else 0")
      .set(draining_.load() ? 1 : 0);
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    telemetry::gauge("winofault_service_jobs_tracked",
                     "jobs retained for status/results queries")
        .set(static_cast<std::int64_t>(jobs_.size()));
  }
}

Json ServiceServer::handle_metrics() {
  refresh_scrape_gauges();
  Json response = make_ok_response();
  response.set("format", Json::str("prometheus-text-0.0.4"));
  response.set("metrics", Json::str(telemetry::prometheus_text()));
  return response;
}

Json ServiceServer::handle_history(const Json& request) {
  // Windowed time series out of the flight recorder's ring. Optional
  // request fields: "last" (newest N samples; 0/absent = all retained),
  // "prefix" (only series whose metric name starts with it — `top` asks
  // for "winofault_" subsets to keep frames small).
  const Json* last_field = request.find("last");
  const std::size_t last_n =
      last_field != nullptr && last_field->as_int(0) > 0
          ? static_cast<std::size_t>(last_field->as_int(0))
          : 0;
  const Json* prefix_field = request.find("prefix");
  const std::string prefix =
      prefix_field != nullptr ? prefix_field->as_string() : std::string();

  const std::vector<HistorySample> samples = history_.window(last_n);
  Json response = make_ok_response();
  response.set("interval_s", Json::integer(history_.interval_s()));
  response.set("depth",
               Json::integer(static_cast<std::int64_t>(history_.depth())));
  response.set("recorded", Json::integer(history_.total_recorded()));
  Json out = Json::array();
  for (const HistorySample& sample : samples) {
    Json one = Json::object();
    one.set("t_us", Json::integer(sample.t_us));
    one.set("wall_ms", Json::integer(sample.wall_ms));
    Json series = Json::object();
    for (const telemetry::SeriesSample& s : sample.series) {
      if (!prefix.empty() && s.name.rfind(prefix, 0) != 0) continue;
      const std::string key =
          s.labels.empty() ? s.name : s.name + "{" + s.labels + "}";
      if (s.type == 'h') {
        Json hist = Json::object();
        hist.set("count", Json::integer(s.value));
        hist.set("sum", Json::integer(s.sum));
        hist.set("p50", Json::number(s.p50));
        hist.set("p95", Json::number(s.p95));
        hist.set("p99", Json::number(s.p99));
        series.set(key, std::move(hist));
      } else {
        series.set(key, Json::integer(s.value));
      }
    }
    one.set("series", std::move(series));
    out.push(std::move(one));
  }
  response.set("samples", std::move(out));
  return response;
}

void ServiceServer::handle_drain(int fd) {
  request_drain();
  {
    std::unique_lock<std::mutex> lock(lifecycle_mu_);
    lifecycle_cv_.wait(lock, [this] { return drained_.load(); });
  }
  const ServerStats snapshot = stats();
  Json response = make_ok_response();
  response.set("jobs_done", Json::integer(snapshot.jobs_done));
  response.set("jobs_failed", Json::integer(snapshot.jobs_failed));
  response.set("jobs_cancelled", Json::integer(snapshot.jobs_cancelled));
  send_line(fd, response, sock_tag_);
}

std::shared_ptr<ServiceJob> ServiceServer::find_job(const std::string& id) {
  std::lock_guard<std::mutex> lock(jobs_mu_);
  const auto it = jobs_.find(id);
  return it != jobs_.end() ? it->second : nullptr;
}

void ServiceServer::retire_job(const std::string& id) {
  std::lock_guard<std::mutex> lock(jobs_mu_);
  finished_jobs_.push_back(id);
  while (finished_jobs_.size() > options_.max_finished_jobs) {
    jobs_.erase(finished_jobs_.front());
    finished_jobs_.pop_front();
  }
}

}  // namespace winofault
