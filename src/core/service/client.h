// Client side of the resident campaign service: a blocking line-oriented
// connection to winofaultd's Unix socket. Used by the bench drivers'
// --daemon mode (via the campaign submit hook), by winofault-cli, and by
// the tests. One client = one connection; not thread-safe (each thread
// opens its own).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "core/campaign/campaign.h"
#include "core/service/protocol.h"

namespace winofault {

class ServiceClient {
 public:
  ServiceClient() = default;
  ~ServiceClient();
  ServiceClient(const ServiceClient&) = delete;
  ServiceClient& operator=(const ServiceClient&) = delete;

  bool connect(const std::string& socket_path, std::string* error);
  bool connected() const { return fd_ >= 0; }
  void close();

  // One request line -> one response line (ping/status/cancel/drain).
  std::optional<Json> request(const Json& request, std::string* error);

  struct SubmitOutcome {
    bool ok = false;
    std::string error;
    std::string error_code;  // typed failure class ("overloaded", ...) if
                             // the daemon sent one
    bool transport_error = false;  // connection-level failure (send/recv
                                   // died) vs a daemon-reported one —
                                   // only the former is worth retrying
    int attempts = 1;  // connections consumed (submit_with_retry)
    std::string job_id;
    std::string state;  // terminal job state ("done"/"failed"/"cancelled")
    CampaignResult result;
  };

  // Submits a campaign and blocks until the job is terminal, invoking
  // `on_progress` (same thread) for every streamed progress event.
  // ok is true for "done" AND "cancelled" (a cancelled stored job carries
  // usable partial results + cells_deferred); false for protocol or
  // execution failures. `job_id_out`, when given, is filled as soon as the
  // daemon accepts — before any progress — so a controller (status/cancel
  // from another connection) can address the job while it runs.
  SubmitOutcome submit_and_wait(
      const std::string& client_name, const ModelEnv& env,
      const CampaignSpec& spec,
      const std::function<void(const CampaignProgress&)>& on_progress = {},
      std::string* job_id_out = nullptr);

  // Capped exponential backoff for submit_with_retry below: attempt k
  // sleeps backoff_ms * 2^(k-1), capped at max_backoff_ms.
  struct RetryPolicy {
    int attempts = 3;
    std::int64_t backoff_ms = 100;
    std::int64_t max_backoff_ms = 2000;
  };

  // Submission hardened against connection failure: each transport error
  // (connect lost, stream died mid-progress) reconnects and resubmits the
  // identical (env, spec) after backoff. The daemon's idempotent-resubmit
  // dedup makes this safe: a retry lands on the job the first attempt
  // started — the campaign never executes twice. Daemon-REPORTED failures
  // ("failed", "overloaded", malformed spec) are returned to the caller,
  // not retried. `outcome.attempts` reports connections consumed.
  SubmitOutcome submit_with_retry(
      const std::string& socket_path, const std::string& client_name,
      const ModelEnv& env, const CampaignSpec& spec,
      const RetryPolicy& policy,
      const std::function<void(const CampaignProgress&)>& on_progress = {},
      std::string* job_id_out = nullptr);

 private:
  bool send_line(const std::string& line, std::string* error);
  bool read_line(std::string* line, std::string* error);

  int fd_ = -1;
  std::string buffer_;
  std::string socket_path_;  // of the live connection
  std::string sock_tag_;     // iofault target tag: "client:<socket_path>"
};

}  // namespace winofault
