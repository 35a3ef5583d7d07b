// winofaultd — the resident campaign daemon (core/service). Accepts
// campaign submissions over a Unix-domain socket and executes them against
// warm cross-submission state: built models, teacher datasets, golden
// activations, and open store handles all survive between submissions, so
// every figure after the first skips its cold start. SIGTERM/SIGINT (or a
// client's `drain` op) triggers a graceful drain: the backlog finishes
// before exit. Stored submissions save their goldens as they run.
//
//   winofaultd --socket /tmp/winofault.sock [--jobs N] [--sessions N]
//              [--session-ttl MS] [--queue-bound N]
//              [--history-depth N] [--history-interval S]
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include <unistd.h>

#include "common/env.h"
#include "core/service/server.h"

namespace {

volatile std::sig_atomic_t g_terminate = 0;

void on_signal(int) { g_terminate = 1; }

void usage(const char* prog, std::FILE* to) {
  std::fprintf(
      to,
      "usage: %s --socket PATH [--jobs N] [--sessions N] "
      "[--session-ttl MS] [--queue-bound N]\n"
      "       [--history-depth N] [--history-interval S]\n"
      "  --socket PATH        Unix-domain socket to serve (required)\n"
      "  --jobs N             campaigns executed concurrently (default 2)\n"
      "  --sessions N         warm (model, dataset) environments kept\n"
      "                       resident (default 4)\n"
      "  --session-ttl MS     evict warm sessions idle this long, at most\n"
      "                       2147483647 ms (24.8 days) (default: no TTL)\n"
      "  --queue-bound N      per-client queued-job bound; the excess is\n"
      "                       refused as 'overloaded' (default 32, 0 = off)\n"
      "  --history-depth N    telemetry snapshots kept for the `history`\n"
      "                       verb (default 120, 0 = sampler off)\n"
      "  --history-interval S seconds between history snapshots (default 5)\n"
      "SIGTERM/SIGINT or a client 'drain' request stops gracefully:\n"
      "queued and running jobs finish first.\n",
      prog);
}

}  // namespace

int main(int argc, char** argv) {
  using winofault::ServerOptions;
  using winofault::ServiceServer;

  ServerOptions options;
  const char* prog = argc > 0 ? argv[0] : "winofaultd";
  // parse_int rejects "2x" and any value outside int's range: 4294967298
  // must not narrow to 2, nor 10000000000 s overflow the sampler's wait.
  const auto int_value = [&](int& i) -> int {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "%s: %s requires a value\n", prog, argv[i]);
      std::exit(2);
    }
    int value = -1;
    if (!winofault::parse_int(argv[++i], &value) || value < 0) {
      std::fprintf(stderr, "%s: bad value '%s' for %s\n", prog, argv[i],
                   argv[i - 1]);
      usage(prog, stderr);
      std::exit(2);
    }
    return value;
  };
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0 ||
        std::strcmp(argv[i], "-h") == 0) {
      usage(prog, stdout);
      return 0;
    }
    if (std::strcmp(argv[i], "--socket") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: --socket requires a value\n", prog);
        return 2;
      }
      options.socket_path = argv[++i];
    } else if (std::strcmp(argv[i], "--jobs") == 0) {
      options.concurrent_jobs = int_value(i);
    } else if (std::strcmp(argv[i], "--sessions") == 0) {
      options.max_sessions = static_cast<std::size_t>(int_value(i));
    } else if (std::strcmp(argv[i], "--session-ttl") == 0) {
      options.session_idle_ttl_ms = int_value(i);
    } else if (std::strcmp(argv[i], "--queue-bound") == 0) {
      options.max_queued_per_client = static_cast<std::size_t>(int_value(i));
    } else if (std::strcmp(argv[i], "--history-depth") == 0) {
      options.history_depth = static_cast<std::size_t>(int_value(i));
    } else if (std::strcmp(argv[i], "--history-interval") == 0) {
      options.history_interval_s = int_value(i);
    } else {
      std::fprintf(stderr, "%s: unknown argument '%s'\n", prog, argv[i]);
      usage(prog, stderr);
      return 2;
    }
  }
  if (options.socket_path.empty()) {
    std::fprintf(stderr, "%s: --socket is required\n", prog);
    usage(prog, stderr);
    return 2;
  }

  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);

  ServiceServer server(options);
  std::string error;
  if (!server.start(&error)) {
    std::fprintf(stderr, "%s: %s\n", prog, error.c_str());
    return 1;
  }
  std::printf("winofaultd listening on %s (pid %ld)\n",
              options.socket_path.c_str(), static_cast<long>(::getpid()));
  std::fflush(stdout);

  // Signals only set a flag (a handler cannot take locks); the main
  // thread polls it and runs the same drain path a client `drain` request
  // would. Either exit route converges on wait().
  while (g_terminate == 0 && !server.drained()) {
    ::usleep(100 * 1000);
  }
  server.request_drain();
  server.wait();
  const winofault::ServerStats stats = server.stats();
  std::printf(
      "winofaultd exiting: %lld done, %lld failed, %lld cancelled\n",
      static_cast<long long>(stats.jobs_done),
      static_cast<long long>(stats.jobs_failed),
      static_cast<long long>(stats.jobs_cancelled));
  return 0;
}
