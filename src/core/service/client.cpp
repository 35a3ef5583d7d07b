#include "core/service/client.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "common/iofault/iofault.h"
#include "common/logging.h"

namespace winofault {
namespace {

bool fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

}  // namespace

ServiceClient::~ServiceClient() { close(); }

void ServiceClient::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  buffer_.clear();
  socket_path_.clear();
  sock_tag_.clear();
}

bool ServiceClient::connect(const std::string& socket_path,
                            std::string* error) {
  close();
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.empty() || socket_path.size() >= sizeof(addr.sun_path)) {
    return fail(error, "socket path empty or longer than sun_path");
  }
  std::strncpy(addr.sun_path, socket_path.c_str(),
               sizeof(addr.sun_path) - 1);
  if (iofault::connect_should_drop("client:" + socket_path)) {
    return fail(error,
                "connect(" + socket_path + "): " + strerror(errno));
  }
  fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd_ < 0) return fail(error, std::string("socket(): ") + strerror(errno));
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    const std::string message =
        "connect(" + socket_path + "): " + strerror(errno);
    close();
    return fail(error, message);
  }
  socket_path_ = socket_path;
  sock_tag_ = "client:" + socket_path;
  return true;
}

bool ServiceClient::send_line(const std::string& line, std::string* error) {
  if (fd_ < 0) return fail(error, "not connected");
  std::size_t sent = 0;
  while (sent < line.size()) {
    const ssize_t n = iofault::checked_send(fd_, line.data() + sent,
                                            line.size() - sent, sock_tag_);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return fail(error, "daemon connection lost while sending");
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

bool ServiceClient::read_line(std::string* line, std::string* error) {
  if (fd_ < 0) return fail(error, "not connected");
  char chunk[4096];
  for (;;) {
    const std::size_t newline = buffer_.find('\n');
    if (newline != std::string::npos) {
      line->assign(buffer_, 0, newline);
      buffer_.erase(0, newline + 1);
      return true;
    }
    const ssize_t n = iofault::checked_recv(fd_, chunk, sizeof(chunk),
                                            sock_tag_);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return fail(error, "daemon connection closed");
    }
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

std::optional<Json> ServiceClient::request(const Json& request,
                                           std::string* error) {
  std::string line = request.dump();
  line.push_back('\n');
  if (!send_line(line, error)) return std::nullopt;
  std::string response_line;
  if (!read_line(&response_line, error)) return std::nullopt;
  std::optional<Json> response = Json::parse(response_line);
  if (!response.has_value()) {
    fail(error, "malformed response from daemon");
    return std::nullopt;
  }
  return response;
}

ServiceClient::SubmitOutcome ServiceClient::submit_and_wait(
    const std::string& client_name, const ModelEnv& env,
    const CampaignSpec& spec,
    const std::function<void(const CampaignProgress&)>& on_progress,
    std::string* job_id_out) {
  SubmitOutcome outcome;
  Json submit = Json::object();
  submit.set("op", Json::str("submit"));
  submit.set("client", Json::str(client_name));
  submit.set("env", encode_model_env(env));
  submit.set("spec", encode_campaign_spec(spec));
  submit.set("wait", Json::boolean(true));
  std::string line = submit.dump();
  line.push_back('\n');
  if (!send_line(line, &outcome.error)) {
    outcome.transport_error = true;
    return outcome;
  }

  for (;;) {
    std::string response_line;
    if (!read_line(&response_line, &outcome.error)) {
      outcome.transport_error = true;
      return outcome;
    }
    const std::optional<Json> message = Json::parse(response_line);
    if (!message.has_value() || !message->is_object()) {
      outcome.error = "malformed message from daemon";
      return outcome;
    }
    const Json* event = message->find("event");
    if (event == nullptr) {
      // A plain response in submit position is a rejection.
      const Json* error = message->find("error");
      outcome.error = error != nullptr ? error->as_string()
                                       : "submission rejected";
      if (const Json* code = message->find("code")) {
        outcome.error_code = code->as_string();
      }
      return outcome;
    }
    const std::string kind = event->as_string();
    if (kind == "accepted") {
      const Json* id = message->find("job");
      if (id != nullptr) outcome.job_id = id->as_string();
      if (job_id_out != nullptr) *job_id_out = outcome.job_id;
      continue;
    }
    if (kind == "progress") {
      if (on_progress) {
        CampaignProgress progress;
        if (const Json* v = message->find("done")) {
          progress.cells_done = v->as_int(0);
        }
        if (const Json* v = message->find("total")) {
          progress.cells_total = v->as_int(0);
        }
        if (const Json* v = message->find("loaded")) {
          progress.cells_loaded = v->as_int(0);
        }
        if (const Json* v = message->find("deferred")) {
          progress.cells_deferred = v->as_int(0);
        }
        on_progress(progress);
      }
      continue;
    }
    if (kind == "done") {
      const Json* state = message->find("state");
      outcome.state = state != nullptr ? state->as_string() : "done";
      if (outcome.state == "failed") {
        const Json* error = message->find("error");
        outcome.error = error != nullptr ? error->as_string()
                                         : "campaign failed";
        return outcome;
      }
      const Json* result = message->find("result");
      if (result == nullptr ||
          !decode_campaign_result(*result, &outcome.result,
                                  &outcome.error)) {
        if (outcome.error.empty()) outcome.error = "result missing";
        return outcome;
      }
      outcome.ok = true;
      return outcome;
    }
    outcome.error = "unexpected event '" + kind + "'";
    return outcome;
  }
}

ServiceClient::SubmitOutcome ServiceClient::submit_with_retry(
    const std::string& socket_path, const std::string& client_name,
    const ModelEnv& env, const CampaignSpec& spec, const RetryPolicy& policy,
    const std::function<void(const CampaignProgress&)>& on_progress,
    std::string* job_id_out) {
  SubmitOutcome outcome;
  std::int64_t backoff = policy.backoff_ms;
  const int attempts = policy.attempts < 1 ? 1 : policy.attempts;
  for (int attempt = 1;; ++attempt) {
    bool transport = false;
    if (!connect(socket_path, &outcome.error)) {
      transport = true;
    } else {
      outcome = submit_and_wait(client_name, env, spec, on_progress,
                                job_id_out);
      transport = outcome.transport_error;
    }
    outcome.attempts = attempt;
    // Only connection-level failures retry: the daemon's idempotent
    // dedup means the resubmission lands on the job the dead connection
    // left running rather than executing the campaign again. Anything the
    // daemon *said* (failed, overloaded, bad spec) is a real answer.
    if (outcome.ok || !transport || attempt >= attempts) {
      outcome.transport_error = transport;
      return outcome;
    }
    WF_INFO << "service client: submit attempt " << attempt << "/" << attempts
            << " lost its connection (" << outcome.error << "); retrying in "
            << backoff << " ms";
    std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
    backoff = std::min(backoff * 2, policy.max_backoff_ms);
  }
}

}  // namespace winofault
