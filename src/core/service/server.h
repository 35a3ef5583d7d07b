// The resident campaign service (winofaultd): a Unix-domain-socket server
// that executes campaign submissions against warm per-environment sessions
// (session.h) through a fair scheduler (scheduler.h), streaming progress
// events to clients (protocol.h). See README.md for the protocol grammar,
// scheduling semantics, and the failure table.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/service/history.h"
#include "core/service/protocol.h"
#include "core/service/scheduler.h"
#include "core/service/session.h"

namespace winofault {

struct ServerOptions {
  std::string socket_path;

  // Campaigns executed concurrently (executor threads). Concurrent
  // campaigns share the process-wide thread pool: each executor is a
  // participating parallel_for caller, so two light campaigns overlap
  // instead of queueing head-of-line behind each other.
  int concurrent_jobs = 2;

  // Warm (network, dataset) environments kept resident; least recently
  // used idle sessions are evicted beyond this.
  std::size_t max_sessions = 4;

  // Hard cap on one request line; longer requests are rejected.
  std::size_t max_line_bytes = 4u << 20;

  // Terminal jobs kept addressable for status/results; the oldest beyond
  // this are forgotten (clients of the streaming submit path never need
  // the table — it exists for detached status/results lookups). Also the
  // job-table GC bound: jobs_ holds at most this many terminal entries, so
  // a week-resident daemon's memory is bounded by its live jobs.
  std::size_t max_finished_jobs = 256;

  // Admission control: at most this many jobs queued per client; the
  // excess is refused with a typed "overloaded" error instead of growing
  // the backlog without bound. 0 = unbounded.
  std::size_t max_queued_per_client = 32;

  // Residency hardening: warm sessions idle longer than this are evicted
  // by the housekeeping thread. 0 = sessions stay warm until LRU pressure
  // or drain.
  std::int64_t session_idle_ttl_ms = 0;

  // Housekeeping cadence (TTL sweeps). Only meaningful with a TTL.
  std::int64_t housekeeping_interval_ms = 500;

  // Flight-recorder history ring (history.h): the sampler thread snapshots
  // the full telemetry registry every `history_interval_s` seconds and
  // keeps the newest `history_depth` samples for the `history` protocol
  // verb (and `winofault-cli top` on top of it). Defaults cover the last
  // ten minutes; depth 0 disables the sampler (the verb then serves an
  // empty window).
  std::size_t history_depth = 120;
  std::int64_t history_interval_s = 5;

  // Environment resolver; defaults to the zoo builder. Test seam.
  ModelEnvBuilder env_builder;
};

struct ServerStats {
  std::int64_t jobs_submitted = 0;
  std::int64_t jobs_done = 0;
  std::int64_t jobs_failed = 0;
  std::int64_t jobs_cancelled = 0;
  std::int64_t jobs_deduped = 0;    // submissions served by an existing job
  std::int64_t jobs_rejected = 0;   // admission-control refusals
  std::int64_t sessions_ttl_evicted = 0;
};

class ServiceServer {
 public:
  explicit ServiceServer(ServerOptions options);
  ~ServiceServer();
  ServiceServer(const ServiceServer&) = delete;
  ServiceServer& operator=(const ServiceServer&) = delete;

  // Binds the socket (refusing to displace a live daemon, replacing a
  // stale socket file), then starts the accept loop and executors.
  bool start(std::string* error);

  // Begins a graceful drain: new submissions are refused, the backlog and
  // running jobs finish.
  // Idempotent; safe from any thread (including connection handlers).
  void request_drain();

  // Blocks until a requested drain completes and every thread is joined.
  // Also the shutdown path of the destructor.
  void wait();

  ServerStats stats() const;
  std::size_t sessions() const { return sessions_.size(); }
  const HistoryRing& history() const { return history_; }

  // True once a drain (client- or operator-initiated) has completed; the
  // daemon main loop polls this to exit on client-requested drains.
  bool drained() const { return drained_.load(); }

 private:
  // One accepted connection: the handler thread owns `fd` until either it
  // exits (client hung up) or shutdown claims it — whoever exchanges the
  // fd to -1 wins, so the descriptor is shut down and closed exactly once
  // and a recycled fd number can never be hit.
  struct Conn {
    std::atomic<int> fd{-1};
    std::atomic<bool> done{false};  // handler exited; safe to join + reap
    std::thread thread;
  };

  void accept_loop();
  void reap_finished_connections();
  void executor_loop();
  void monitor_loop();
  void housekeeping_loop();
  void sampler_loop();
  void handle_connection(Conn* conn);

  // Point-in-time gauges (queue depth, resident sessions, ...) sampled on
  // demand — shared by the `metrics` scrape and the history sampler.
  void refresh_scrape_gauges();

  void handle_submit(int fd, const Json& request);
  void handle_results(int fd, const Json& request);
  Json handle_status(const Json& request);
  Json handle_cancel(const Json& request);
  Json handle_ping();
  Json handle_metrics();
  Json handle_history(const Json& request);
  void handle_drain(int fd);
  void stream_job(int fd, const std::shared_ptr<ServiceJob>& job);

  std::shared_ptr<ServiceJob> find_job(const std::string& id);
  // Records `id` as terminal and forgets the oldest terminal jobs beyond
  // options_.max_finished_jobs (a week-resident daemon must not hold
  // every result it ever produced). In-flight streamers keep their
  // shared_ptr; only the table forgets.
  void retire_job(const std::string& id);

  ServerOptions options_;
  std::string sock_tag_;  // iofault target tag: "daemon:<socket_path>"
  Scheduler scheduler_;
  SessionCache sessions_;
  HistoryRing history_;

  std::atomic<std::uint64_t> next_job_id_{0};
  mutable std::mutex jobs_mu_;
  std::unordered_map<std::string, std::shared_ptr<ServiceJob>> jobs_;
  std::deque<std::string> finished_jobs_;  // retirement order (FIFO)

  mutable std::mutex stats_mu_;
  ServerStats stats_;

  int listen_fd_ = -1;
  std::atomic<bool> draining_{false};
  std::atomic<bool> drained_{false};
  std::mutex lifecycle_mu_;
  std::condition_variable lifecycle_cv_;

  std::thread accept_thread_;
  std::thread monitor_thread_;
  std::thread housekeeping_thread_;
  std::thread sampler_thread_;
  std::vector<std::thread> executors_;
  std::mutex conn_mu_;
  std::vector<std::unique_ptr<Conn>> connections_;
  bool started_ = false;
  bool joined_ = false;
};

}  // namespace winofault
