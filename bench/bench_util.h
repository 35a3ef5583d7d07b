// Shared scaffolding for the figure benches: environment-tunable run sizes,
// model/dataset construction, per-figure seed streams, and table/JSON
// emission (terminal + CSV + perf-trajectory JSON). Every fig driver is a
// thin client of this header plus the core CampaignSpec builders.
//
// Knobs (environment variables):
//   WINOFAULT_IMAGES  evaluation images per point, >= 1 (default 10,
//                     full 40)
//   WINOFAULT_FULL=1  paper-scale sweeps (denser grids, more images)
//   WINOFAULT_WIDTH   model channel width multiplier in [0, 1] (default
//                     0: the model's own)
//   WINOFAULT_SEED    master experiment seed, an int (default 2024)
//   WINOFAULT_STORE   persistent campaign store directory (see
//                     core/store); also --store-dir
//   WINOFAULT_CELL_BUDGET  execute at most N pending cells, then defer the
//                     rest to the next resume (store runs only)
//   WINOFAULT_CLAIM_STALE_MS  distributed runs: claims idle this long are
//                     presumed abandoned and stolen (default 10000)
//   WINOFAULT_DIST_DIE_SHARD / WINOFAULT_DIST_DIE_AFTER  CI kill switch:
//                     worker DIE_SHARD SIGKILLs itself after DIE_AFTER
//                     cells (crash simulation for the dist smoke)
//   WINOFAULT_DAEMON_RETRIES / WINOFAULT_DAEMON_BACKOFF_MS  --daemon
//                     submission retries (default 3) and first backoff
//                     (default 100 ms)
// bench_env reads them once, strictly: a set value that does not parse or
// is out of range exits 2 with the usage text.
//
// Command line (shared by every fig/bench binary via parse_cli):
//   --out-dir DIR     write CSV/JSON outputs under DIR (default: cwd)
//   --store-dir DIR   persistent campaign store directory
//   --workers N       coordinator: fork N local workers of this binary
//                     (--shard i/N each) over the store, wait, merge their
//                     journal segments, then regenerate the figure from
//                     the merged journal (requires --store-dir)
//   --shard i/N       run as worker i of N (normally spawned by --workers;
//                     also valid standalone for multi-host sharding over a
//                     shared directory). Workers suppress CSV/JSON
//                     emission — only the coordinator emits.
// Unknown flags print a usage message and exit(2) instead of being
// silently ignored.
//
// BER axis note (DESIGN.md substitution #2): the reduced models execute
// ~10-40x fewer operations per inference than the paper's full-size
// networks, so equal expected-flip counts occur at proportionally higher
// BER. Benches therefore report expected flips per inference alongside BER.
#pragma once

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/csv.h"
#include "common/env.h"
#include "common/json.h"
#include "common/logging.h"
#include "core/campaign/campaign.h"
#include "core/dist/dist.h"
#include "core/dist/merge.h"
#include "core/dist/worker_pool.h"
#include "core/service/client.h"
#include "core/service/protocol.h"
#include "core/service/session.h"
#include "core/store/hash.h"
#include "core/store/store.h"
#include "fault/models/model_spec.h"
#include "nn/dataset.h"
#include "nn/models/zoo.h"

namespace winofault::bench {

// Process-wide output directory for CSV/JSON emission, set by parse_cli
// (empty = cwd, the historical behaviour).
inline std::string& output_dir_ref() {
  static std::string dir;
  return dir;
}

inline std::string out_path(const std::string& name) {
  const std::string& dir = output_dir_ref();
  return dir.empty() ? name : dir + "/" + name;
}

// True when this process is a distributed worker (--shard i/N): it
// contributes cells to the shared store but must not emit CSV/JSON — the
// coordinator regenerates and emits after the merge.
inline bool& worker_mode_ref() {
  static bool worker = false;
  return worker;
}

// Cells deferred by budgeted campaigns this run (satellite of the PARTIAL
// contract): fig drivers accumulate wrapper-reported counts here via
// note_partial; emit() marks the CSV and finish_figure() fails the exit
// code when non-zero.
inline std::int64_t& deferred_cells_ref() {
  static std::int64_t cells = 0;
  return cells;
}

inline void note_partial(std::int64_t cells_deferred) {
  deferred_cells_ref() += cells_deferred;
}

// Exit code of a fig driver: 0 when complete, 3 when any campaign deferred
// cells (PARTIAL output) — so CI and scripts cannot mistake a budgeted
// checkpoint run for finished figures.
inline int finish_figure() {
  if (worker_mode_ref()) return 0;
  if (deferred_cells_ref() > 0) {
    std::fprintf(stderr,
                 "PARTIAL RUN: %lld cells deferred by the cell budget; "
                 "CSV output is marked, exit code 3 (resume with the same "
                 "--store-dir to finish)\n",
                 static_cast<long long>(deferred_cells_ref()));
    return 3;
  }
  return 0;
}

// Command-line surface shared by all fig/bench drivers.
struct CliOptions {
  std::string out_dir;
  std::string store_dir;
  std::string daemon_socket;  // --daemon PATH: submit to winofaultd
  // --fault-model SPEC (repeatable): fault-model registry specs
  // (fault/models), validated by parse_cli (malformed => usage + exit 2).
  std::vector<std::string> fault_models;
  int workers = 0;      // --workers N: coordinator for N local workers
  int shard_index = 0;  // --shard i/N: this process is worker i of N
  int shard_count = 0;
};

inline void print_usage(const char* prog, std::FILE* to) {
  std::fprintf(
      to,
      "usage: %s [--out-dir DIR] [--store-dir DIR] [--workers N | "
      "--shard i/N]\n"
      "  --out-dir DIR    write CSV/JSON outputs under DIR (default: cwd)\n"
      "  --store-dir DIR  persistent campaign store: checkpoint/resume\n"
      "                   journal + golden spill-to-disk (also via the\n"
      "                   WINOFAULT_STORE environment variable)\n"
      "  --workers N      distributed coordinator: fork N local workers\n"
      "                   over the store, merge their journal segments,\n"
      "                   regenerate the figure (requires a store dir)\n"
      "  --shard i/N      run as distributed worker i of N over the store\n"
      "                   (CSV/JSON emission suppressed)\n"
      "  --daemon PATH    submit campaigns to the resident winofaultd on\n"
      "                   this Unix socket instead of executing inline\n"
      "                   (warm cross-submission goldens; also via the\n"
      "                   WINOFAULT_DAEMON environment variable)\n"
      "  --fault-model SPEC\n"
      "                   fault model to sweep (repeatable; each silicon\n"
      "                   spec adds a curve set). Grammar:\n"
      "                   model[(arg)]@target[#persistence] — e.g. flip@op\n"
      "                   (the default), stuck0@weight#perm, toggle@accum,\n"
      "                   stuck1(0.001)@weight#perm. Also via the\n"
      "                   WINOFAULT_FAULT_MODEL environment variable;\n"
      "                   storage faults are WINOFAULT_CHAOS rules\n"
      "env knobs: WINOFAULT_IMAGES, WINOFAULT_FULL, WINOFAULT_SEED,\n"
      "           WINOFAULT_WIDTH, WINOFAULT_STORE, WINOFAULT_CELL_BUDGET,\n"
      "           WINOFAULT_CLAIM_STALE_MS, WINOFAULT_DAEMON,\n"
      "           WINOFAULT_FAULT_MODEL\n",
      prog);
}

// Parses the shared flags; unknown arguments are an error (usage + exit 2)
// so a typo can never silently fall back to defaults. Also applies
// `--out-dir` to the process-wide output directory.
inline CliOptions parse_cli(int argc, char** argv) {
  CliOptions cli;
  const char* prog = argc > 0 ? argv[0] : "bench";
  const auto flag_value = [&](const char* flag, int& i,
                              std::string* out) -> bool {
    const std::size_t len = std::strlen(flag);
    if (std::strncmp(argv[i], flag, len) != 0) return false;
    if (argv[i][len] == '=') {
      *out = argv[i] + len + 1;
      return true;
    }
    if (argv[i][len] == '\0') {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: %s requires a value\n", prog, flag);
        print_usage(prog, stderr);
        std::exit(2);
      }
      *out = argv[++i];
      return true;
    }
    return false;
  };
  std::string workers_value;
  std::string shard_value;
  std::string model_value;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0 ||
        std::strcmp(argv[i], "-h") == 0) {
      print_usage(prog, stdout);
      std::exit(0);
    }
    if (flag_value("--out-dir", i, &cli.out_dir)) continue;
    if (flag_value("--store-dir", i, &cli.store_dir)) continue;
    if (flag_value("--daemon", i, &cli.daemon_socket)) continue;
    if (flag_value("--workers", i, &workers_value)) continue;
    if (flag_value("--shard", i, &shard_value)) continue;
    if (flag_value("--fault-model", i, &model_value)) {
      cli.fault_models.push_back(model_value);
      continue;
    }
    std::fprintf(stderr, "%s: unknown argument '%s'\n", prog, argv[i]);
    print_usage(prog, stderr);
    std::exit(2);
  }
  // Malformed model specs fail up front — a typo'd spec silently sweeping
  // the default model would produce figures labeled with a model that
  // never ran. The env knob gets the same strictness in bench drivers
  // (the library proper only warns, so tests/tools stay usable).
  for (const std::string& raw : cli.fault_models) {
    std::string model_error;
    if (!FaultModelSpec::parse(raw, &model_error).has_value()) {
      std::fprintf(stderr, "%s: --fault-model '%s': %s\n", prog, raw.c_str(),
                   model_error.c_str());
      print_usage(prog, stderr);
      std::exit(2);
    }
  }
  if (const std::string env_spec = env_string("WINOFAULT_FAULT_MODEL", "");
      !env_spec.empty()) {
    std::string model_error;
    if (!FaultModelSpec::parse(env_spec, &model_error).has_value()) {
      std::fprintf(stderr, "%s: WINOFAULT_FAULT_MODEL '%s': %s\n", prog,
                   env_spec.c_str(), model_error.c_str());
      std::exit(2);
    }
  }
  if (cli.store_dir.empty()) {
    cli.store_dir = env_string("WINOFAULT_STORE", "");
  }
  // parse_int reads the whole value and rejects one outside int's range:
  // "2x" or "1/2x" must not run as 2 or shard 1/2, and 4294967298 must not
  // narrow to 2.
  if (!workers_value.empty() &&
      (!parse_int(workers_value.c_str(), &cli.workers) || cli.workers < 1)) {
    std::fprintf(stderr, "%s: --workers expects a positive integer, got "
                         "'%s'\n",
                 prog, workers_value.c_str());
    print_usage(prog, stderr);
    std::exit(2);
  }
  if (!shard_value.empty()) {
    const std::size_t slash = shard_value.find('/');
    int i = -1, n = 0;
    if (slash == std::string::npos ||
        !parse_int(shard_value.substr(0, slash).c_str(), &i) ||
        !parse_int(shard_value.c_str() + slash + 1, &n) || n < 1 || i < 0 ||
        i >= n) {
      std::fprintf(stderr, "%s: --shard expects i/N with 0 <= i < N, got "
                           "'%s'\n",
                   prog, shard_value.c_str());
      print_usage(prog, stderr);
      std::exit(2);
    }
    cli.shard_index = i;
    cli.shard_count = n;
  }
  if (cli.daemon_socket.empty()) {
    cli.daemon_socket = env_string("WINOFAULT_DAEMON", "");
  }
  if (cli.workers > 0 && cli.shard_count > 0) {
    std::fprintf(stderr, "%s: --workers (coordinator) and --shard (worker) "
                         "are mutually exclusive\n",
                 prog);
    std::exit(2);
  }
  if (!cli.daemon_socket.empty() &&
      (cli.workers > 0 || cli.shard_count > 0)) {
    // A daemon submission is one process talking to one resident service;
    // mixing it with the fork/merge coordinator would run every campaign
    // twice (once per path) or, worse, interleave their stores.
    std::fprintf(stderr, "%s: --daemon is mutually exclusive with "
                         "--workers/--shard\n",
                 prog);
    std::exit(2);
  }
  if ((cli.workers > 1 || cli.shard_count > 1) && cli.store_dir.empty()) {
    std::fprintf(stderr, "%s: distributed execution needs a shared store: "
                         "pass --store-dir (or WINOFAULT_STORE)\n",
                 prog);
    std::exit(2);
  }
  if (cli.shard_count > 1) worker_mode_ref() = true;
  if (!cli.out_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(cli.out_dir, ec);
    if (ec) {
      // Fail loudly: otherwise every CSV/JSON write fails silently and the
      // run exits 0 having produced nothing.
      std::fprintf(stderr, "%s: cannot create --out-dir '%s': %s\n", prog,
                   cli.out_dir.c_str(), ec.message().c_str());
      std::exit(2);
    }
    output_dir_ref() = cli.out_dir;
  }
  return cli;
}

// Resolves the validated --fault-model specs into the driver's model
// list. With no CLI spec the list is the process default (the
// WINOFAULT_FAULT_MODEL knob, else the builtin flip@op), so every driver
// sweeps exactly one model by default and its outputs stay byte-identical
// to the pre-registry ones.
inline std::vector<FaultModelSpec> resolve_fault_models(
    const CliOptions& cli) {
  std::vector<FaultModelSpec> models;
  for (const std::string& raw : cli.fault_models) {
    models.push_back(*FaultModelSpec::parse(raw));  // validated by parse_cli
  }
  if (models.empty()) models.push_back(FaultModelSpec::process_default());
  return models;
}

// For programs with no fault-model axis (Figs. 5-7, the ablations, and
// bench_campaign, bench_store, bench_dist and bench_service): their points
// always run the builtin flip@op (bench_campaign's registry regimes name
// their models in code), so any other resolved model
// (--fault-model or WINOFAULT_FAULT_MODEL) would either be ignored or
// change the numbers under the builtin's CSV name. Exits 2 with the usage
// text before anything forks or builds a model.
inline void require_builtin_fault_model(const CliOptions& cli,
                                        const char* prog) {
  const std::vector<FaultModelSpec> models = resolve_fault_models(cli);
  if (models.size() == 1 && models.front().is_default()) return;
  std::fprintf(stderr,
               "%s: this driver runs only the builtin fault model flip@op; "
               "drop --fault-model and WINOFAULT_FAULT_MODEL\n",
               prog);
  print_usage(prog, stderr);
  std::exit(2);
}

// Coordinator path (--workers N): fork N workers of this binary over the
// shared store — each re-executes the driver with `--shard i/N`, claims
// cost-weighted buckets of every campaign, and journals into its own
// segment — then merge the segments into the canonical journals. On
// return the caller proceeds as an ordinary single process: every cell is
// journaled, so the figure regenerates without executing anything. A
// worker that died (crash, kill) is only reported — survivors already
// stole and re-executed its claims.
inline void run_local_coordinator(CliOptions& cli) {
  if (cli.workers <= 1) {
    // --workers 1 degenerates to the ordinary single process — spawning
    // one child would only add fork/exec and merge latency.
    cli.workers = 0;
    return;
  }
  const std::string exe = self_executable_path();
  if (exe.empty()) {
    std::fprintf(stderr,
                 "--workers: cannot resolve own executable; running "
                 "single-process\n");
    cli.workers = 0;
    return;
  }
  // Children inherit the validated configuration explicitly; --workers is
  // replaced by --shard. Environment knobs inherit via the environment.
  std::vector<std::string> args;
  if (!cli.out_dir.empty()) {
    args.push_back("--out-dir");
    args.push_back(cli.out_dir);
  }
  args.push_back("--store-dir");
  args.push_back(cli.store_dir);
  std::printf("[dist] spawning %d local workers over %s\n", cli.workers,
              cli.store_dir.c_str());
  std::fflush(stdout);
  // Local workers split this machine's cores (see dist_options).
  ::setenv("WINOFAULT_DIST_SHARE_HOST", "1", 1);
  int failed = 0;
  for (const WorkerExit& we :
       spawn_local_workers(exe, args, cli.workers)) {
    if (!we.ok()) ++failed;
  }
  const MergeStats merge = merge_campaign_segments(cli.store_dir);
  std::printf(
      "[dist] %d/%d workers ok; merged %d segment(s): %lld new cell(s), "
      "%lld duplicate(s), %d rejected, %d torn\n",
      cli.workers - failed, cli.workers, merge.segments_merged,
      static_cast<long long>(merge.cells_merged),
      static_cast<long long>(merge.cells_duplicate), merge.segments_rejected,
      merge.segments_torn);
  std::fflush(stdout);
  cli.workers = 0;
}

// For drivers with nothing to persist (raw-kernel ablations, A/B benches
// that manage their own scratch stores): acknowledge an explicit store
// request instead of silently ignoring it.
inline void note_store_unused(const CliOptions& cli, const char* why) {
  if (!cli.store_dir.empty()) {
    std::fprintf(stderr, "note: --store-dir/WINOFAULT_STORE ignored: %s\n",
                 why);
  }
}

// For drivers that cannot distribute: accepting --workers would silently
// do nothing and --shard would flip worker mode, suppressing the driver's
// own CSV/JSON output with no coordinator to ever emit it. Fail loudly
// instead, like any other unsupported flag.
inline void reject_dist_cli(const CliOptions& cli, const char* prog,
                            const char* why) {
  if (cli.workers > 0 || cli.shard_count > 0) {
    std::fprintf(stderr, "%s: --workers/--shard not supported: %s\n", prog,
                 why);
    std::exit(2);
  }
}

// Strict environment knobs: a set, non-empty value that does not parse or
// is out of range exits 2 with the message and the usage text instead of
// silently running the default; an unset or empty variable keeps it.
[[noreturn]] inline void bad_knob(const char* prog, const char* name,
                                  const std::string& expects,
                                  const char* value) {
  std::fprintf(stderr, "%s: %s expects %s, got '%s'\n", prog, name,
               expects.c_str(), value);
  print_usage(prog, stderr);
  std::exit(2);
}

inline const char* knob_value(const char* name) {
  const char* value = std::getenv(name);
  return value != nullptr && *value != '\0' ? value : nullptr;
}

// An int >= `min` (parse_int: the whole text, inside int's range).
inline int int_knob(const char* prog, const char* name, int fallback,
                    int min) {
  const char* value = knob_value(name);
  if (value == nullptr) return fallback;
  int parsed = 0;
  if (parse_int(value, &parsed) && parsed >= min) return parsed;
  bad_knob(prog, name,
           min == std::numeric_limits<int>::min()
               ? "an int"
               : "an integer >= " + std::to_string(min),
           value);
}

// A number in [lo, hi]; NaN and a bound-crossing infinity are rejected.
inline double number_knob(const char* prog, const char* name,
                          double fallback, double lo, double hi,
                          const char* expects) {
  const char* value = knob_value(name);
  if (value == nullptr) return fallback;
  char* end = nullptr;
  const double parsed = std::strtod(value, &end);
  if (*end == '\0' && parsed >= lo && parsed <= hi) return parsed;
  bad_knob(prog, name, expects, value);
}

inline bool bool_knob(const char* prog, const char* name, bool fallback) {
  const char* value = knob_value(name);
  if (value == nullptr) return fallback;
  const std::string v(value);
  if (v == "1" || v == "true" || v == "on" || v == "yes") return true;
  if (v == "0" || v == "false" || v == "off" || v == "no") return false;
  bad_knob(prog, name, "1, true, on, yes, 0, false, off or no", value);
}

// WINOFAULT_BER of the fixed-BER figures (3 and 5).
inline double ber_knob(const char* prog) {
  return number_knob(prog, "WINOFAULT_BER", 3e-8, 0.0, 1.0,
                     "a number in [0, 1]");
}

// WINOFAULT_VOLT_ANCHOR of the voltage figures (6 and 7): the log10 BER at
// the voltage model's anchor voltage.
inline double volt_anchor_knob(const char* prog) {
  return number_knob(prog, "WINOFAULT_VOLT_ANCHOR", -10.0,
                     std::numeric_limits<double>::lowest(),
                     std::numeric_limits<double>::max(), "a finite number");
}

// The numeric and boolean knobs bench_util.h reads (parse_cli reads the
// path and spec ones), each read once by bench_env before the driver
// builds its model.
struct BenchEnv {
  int images = 10;
  bool full = false;
  std::uint64_t seed = 2024;
  double width_override = 0.0;  // 0 => per-model default
  std::int64_t cell_budget = 0;  // WINOFAULT_CELL_BUDGET; 0 => none
  int claim_stale_ms = 10000;    // WINOFAULT_CLAIM_STALE_MS
  bool dist_share_host = false;  // WINOFAULT_DIST_SHARE_HOST
  int dist_die_shard = -1;       // WINOFAULT_DIST_DIE_SHARD; -1 => none
  int dist_die_after = 0;        // WINOFAULT_DIST_DIE_AFTER
  int daemon_retries = 3;        // WINOFAULT_DAEMON_RETRIES
  int daemon_backoff_ms = 100;   // WINOFAULT_DAEMON_BACKOFF_MS
};

// Reads the shared knobs strictly: WINOFAULT_IMAGES is an integer >= 1
// (the wire's env.images bound), WINOFAULT_SEED an int, WINOFAULT_WIDTH a
// number in [0, 1] (0 = the model's default, the daemon's env.width
// bound), the claim staleness window and the retry count integers >= 1,
// and the other counts and milliseconds integers >= 0.
inline BenchEnv bench_env(const char* prog) {
  BenchEnv env;
  env.full = bool_knob(prog, "WINOFAULT_FULL", false);
  env.images = int_knob(prog, "WINOFAULT_IMAGES", env.full ? 40 : 10, 1);
  env.seed = static_cast<std::uint64_t>(int_knob(
      prog, "WINOFAULT_SEED", 2024, std::numeric_limits<int>::min()));
  env.width_override =
      number_knob(prog, "WINOFAULT_WIDTH", 0.0, 0.0, 1.0,
                  "a number in [0, 1] (0: the model's default)");
  env.cell_budget = int_knob(prog, "WINOFAULT_CELL_BUDGET", 0, 0);
  env.claim_stale_ms = int_knob(prog, "WINOFAULT_CLAIM_STALE_MS", 10000, 1);
  // Set by the local coordinator before spawning: its workers split one
  // machine. Hand-started shards (one per host) keep the whole host's
  // threads.
  env.dist_share_host = bool_knob(prog, "WINOFAULT_DIST_SHARE_HOST", false);
  env.dist_die_shard = int_knob(prog, "WINOFAULT_DIST_DIE_SHARD", -1, 0);
  env.dist_die_after = int_knob(prog, "WINOFAULT_DIST_DIE_AFTER", 0, 0);
  env.daemon_retries = int_knob(prog, "WINOFAULT_DAEMON_RETRIES", 3, 1);
  env.daemon_backoff_ms =
      int_knob(prog, "WINOFAULT_DAEMON_BACKOFF_MS", 100, 0);
  return env;
}

// StoreOptions from the shared CLI/env surface: the store directory plus
// the WINOFAULT_CELL_BUDGET checkpoint knob. Every store-enabled driver
// builds its options here so the knobs behave identically everywhere.
inline StoreOptions store_options(const std::string& store_dir,
                                  const BenchEnv& env) {
  StoreOptions options;
  options.dir = store_dir;
  options.cell_budget = env.cell_budget;
  return options;
}

// DistOptions from the shared CLI/env surface: the worker's shard identity
// plus the staleness knob and the CI crash-simulation switch.
inline DistOptions dist_options(const CliOptions& cli, const BenchEnv& env) {
  DistOptions dist;
  dist.shard_index = cli.shard_index;
  dist.shard_count = cli.shard_count;
  dist.share_host = env.dist_share_host;
  dist.claim_stale_ms = env.claim_stale_ms;
  if (dist.enabled() && env.dist_die_shard == dist.shard_index) {
    dist.die_after_cells = env.dist_die_after;
  }
  return dist;
}

// ---- Daemon submission (--daemon PATH) -----------------------------------
//
// Routes every campaign of this process to a resident winofaultd instead
// of executing inline, via the campaign submit hook, which receives the
// submitting CampaignRunner: the daemon rebuilds this driver's (model,
// dataset) from a ModelEnv descriptor (model_env), runs the identical spec
// against its warm cross-submission state, and streams the result back —
// bit-identical to inline execution (the runner's cached
// campaign_env_hash rides along and the daemon refuses to run on a
// mismatching build; a figure keeps one runner per environment, so its
// dataset is hashed once, not per submission). Campaigns over
// environments the daemon cannot rebuild (non-zoo networks), or any
// daemon/protocol failure, fall back to inline execution with a warning —
// a dead daemon can never change results, only latency.

// The rebuild recipe of a zoo model with its teacher dataset: what
// make_model builds here and what the daemon's default_model_env_builder
// builds there (the same function, so both hash identically).
inline ModelEnv model_env(const std::string& name, DType dtype, int images,
                          const BenchEnv& env) {
  ModelEnv model;
  model.model = name;
  model.dtype = dtype;
  model.images = images;
  model.seed = env.seed;
  model.width = env.width_override;
  return model;
}

struct DaemonModeState {
  std::string socket;
  BenchEnv env;
  std::string client_name;
  // One persistent connection for every submission of this process — the
  // TMR planner submits hundreds of tiny campaigns per figure, and a
  // connect/teardown (plus a daemon-side handler thread) per campaign is
  // pure overhead. Reconnects lazily after any failure.
  ServiceClient client;
};

inline DaemonModeState& daemon_state_ref() {
  static DaemonModeState state;
  return state;
}

inline void enable_daemon_submission(const std::string& socket,
                                     const BenchEnv& env,
                                     const std::string& client_name) {
  DaemonModeState& state = daemon_state_ref();
  state.socket = socket;
  state.env = env;
  state.client_name = client_name;
  set_campaign_submit_hook([](const CampaignRunner& runner,
                              const CampaignSpec& spec)
                               -> std::optional<CampaignResult> {
    DaemonModeState& state = daemon_state_ref();
    const Network& net = runner.network();
    // Only environments the daemon can rebuild: zoo models carry their zoo
    // name, and the teacher dataset is derived from (model, env). Anything
    // else executes inline.
    bool known_model = false;
    for (const ZooEntry& entry : model_zoo()) {
      if (entry.name == net.name()) {
        known_model = true;
        break;
      }
    }
    if (!known_model || runner.dataset().images.empty()) return std::nullopt;
    ModelEnv env = model_env(
        net.name(), net.dtype(),
        static_cast<int>(runner.dataset().images.size()), state.env);
    env.env_hash = runner.env_hash();

    CampaignSpec to_send = spec;
    if (!to_send.store.dir.empty()) {
      // The daemon's cwd is not ours: store paths must survive the hop.
      std::error_code ec;
      const auto absolute =
          std::filesystem::absolute(to_send.store.dir, ec);
      if (!ec) to_send.store.dir = absolute.string();
    }

    auto last_print = std::chrono::steady_clock::now();
    const auto on_progress = [&](const CampaignProgress& progress) {
      const auto now = std::chrono::steady_clock::now();
      if (now - last_print < std::chrono::seconds(1)) return;
      last_print = now;
      std::fprintf(stderr, "[daemon] %lld/%lld cells (%lld loaded)\n",
                   static_cast<long long>(progress.cells_done),
                   static_cast<long long>(progress.cells_total),
                   static_cast<long long>(progress.cells_loaded));
    };

    // Fast path: reuse the persistent connection (the TMR planner submits
    // hundreds of campaigns; one connect per campaign is pure overhead).
    // Any transport failure — daemon restarting, connection chaos-dropped
    // mid-stream — falls into the retrying path: reconnect + resubmit with
    // capped exponential backoff. Resubmission is idempotent (the daemon
    // dedups identical (env, spec) submissions onto the live job), so a
    // retry can never execute the campaign twice.
    ServiceClient::RetryPolicy policy;
    policy.attempts = state.env.daemon_retries;
    policy.backoff_ms = state.env.daemon_backoff_ms;
    ServiceClient::SubmitOutcome outcome;
    bool attempted = false;
    if (state.client.connected()) {
      outcome = state.client.submit_and_wait(state.client_name, env, to_send,
                                             on_progress);
      attempted = true;
    }
    if (!attempted || (!outcome.ok && outcome.transport_error)) {
      if (attempted) {
        std::fprintf(stderr,
                     "[daemon] connection lost (%s); reconnecting\n",
                     outcome.error.c_str());
      }
      outcome = state.client.submit_with_retry(state.socket,
                                               state.client_name, env,
                                               to_send, policy, on_progress);
      if (outcome.attempts > 1 && outcome.ok) {
        std::fprintf(stderr, "[daemon] submission recovered after %d attempts\n",
                     outcome.attempts);
      }
    }
    if (!outcome.ok) {
      std::fprintf(stderr,
                   "[daemon] job %s failed: %s%s%s%s; executing inline\n",
                   outcome.job_id.c_str(), outcome.error.c_str(),
                   outcome.error_code.empty() ? "" : " (code ",
                   outcome.error_code.c_str(),
                   outcome.error_code.empty() ? "" : ")");
      // The connection may be mid-stream or dead; a fresh one is the only
      // state a later submission can trust.
      state.client.close();
      return std::nullopt;
    }
    // Once per process, on the first success: CI greps this marker to
    // assert the daemon path actually executed (vs silently falling back
    // inline, which would make a "daemon smoke test" test nothing).
    static bool announced = false;
    if (!announced) {
      announced = true;
      std::fprintf(stderr, "[daemon] executed via daemon (job %s)\n",
                   outcome.job_id.c_str());
    }
    return outcome.result;
  });
}

// Per-figure context: the bench environment plus that figure's seed
// streams. Each figure historically drew from its own offset of the master
// seed so curves never share fault streams across figures; the offsets are
// preserved here so tables stay reproducible across revisions (fig 5 uses
// two streams: the vulnerability analysis and the planner).
struct FigureCtx {
  BenchEnv env;
  int figure = 0;
  std::string store_dir;      // "" => persistence disabled
  DistOptions dist;           // worker shard identity (--shard i/N)
  std::string daemon_socket;  // "" => inline execution (no daemon)
  // Silicon fault models to sweep (resolve_fault_models): always at least
  // one entry; exactly {builtin flip@op} unless --fault-model or
  // WINOFAULT_FAULT_MODEL says otherwise. Figs. 1-4 loop their figure body
  // per model; non-default models suffix their CSV names with the model
  // slug so the default outputs keep their historical names and bytes.
  // Figs. 5-7 have no fault-model axis and accept only the builtin
  // (require_builtin_fault_model).
  std::vector<FaultModelSpec> fault_models = {FaultModelSpec{}};

  std::uint64_t seed(int stream = 0) const {
    static constexpr int kBaseOffset[] = {0, 1, 2, 3, 4, 5, 7, 8};
    WF_CHECK(figure >= 1 &&
             figure < static_cast<int>(std::size(kBaseOffset)));
    return env.seed + static_cast<std::uint64_t>(kBaseOffset[figure]) +
           static_cast<std::uint64_t>(stream);
  }

  // Store options for this figure's campaigns: journal + golden spill
  // under store_dir (no-op when unset), plus this worker's shard identity
  // — every campaign the driver builds distributes automatically.
  StoreOptions store() const {
    StoreOptions options = store_options(store_dir, env);
    options.dist = dist;
    return options;
  }
};

// argc/argv are mandatory: every fig driver must parse the shared CLI, or
// --out-dir/--store-dir and the unknown-flag rejection would silently not
// apply to it. A --workers coordinator forks its workers HERE — before the
// driver builds models or spawns the thread pool — then continues
// single-process against the merged store. Figs. 5-7 first reject any
// fault model but the builtin (require_builtin_fault_model).
inline FigureCtx figure_ctx(int figure, int argc, char** argv) {
  CliOptions cli = parse_cli(argc, argv);
  const BenchEnv env = bench_env(argv[0]);
  if (figure >= 5) require_builtin_fault_model(cli, argv[0]);
  run_local_coordinator(cli);
  FigureCtx ctx{env, figure, cli.store_dir, dist_options(cli, env),
                cli.daemon_socket};
  ctx.fault_models = resolve_fault_models(cli);
  if (!ctx.daemon_socket.empty()) {
    // Every campaign this driver builds now submits to the daemon; the
    // driver keeps doing everything else (tables, CSV/JSON) locally.
    char client_name[64];
    std::snprintf(client_name, sizeof(client_name), "fig%d-%ld", figure,
                  static_cast<long>(::getpid()));
    enable_daemon_submission(ctx.daemon_socket, ctx.env, client_name);
  }
  return ctx;
}

// Builds a zoo model plus its teacher-labeled dataset sized for this run,
// through the daemon's own builder (default_model_env_builder), so a
// daemon session rebuilds exactly this environment.
struct ModelUnderTest {
  Network net;
  Dataset data;
  const ZooEntry* entry = nullptr;
};

inline ModelUnderTest make_model(const std::string& name, DType dtype,
                                 const BenchEnv& env) {
  // zoo_entry aborts on an unknown name, so the build below cannot fail.
  ModelUnderTest m{Network(name, dtype), Dataset{}, &zoo_entry(name)};
  const bool built = default_model_env_builder()(
      model_env(name, dtype, env.images, env), &m.net, &m.data, nullptr);
  WF_CHECK(built);
  return m;
}

inline void emit(const Table& table, const std::string& title,
                 const std::string& csv_name) {
  if (worker_mode_ref()) {
    // Workers contribute cells, not figures: the coordinator emits after
    // merging, and concurrent workers writing one CSV would race.
    std::printf("[worker] %s: emission suppressed (coordinator emits)\n",
                csv_name.c_str());
    std::fflush(stdout);
    return;
  }
  std::printf("\n== %s ==\n%s", title.c_str(), table.to_aligned().c_str());
  const std::string path = out_path(csv_name + ".csv");
  if (table.write_csv(path)) {
    if (deferred_cells_ref() > 0) {
      // Budgeted run: brand the CSV itself so no downstream consumer can
      // mistake partial tallies for finished figures (note_partial +
      // finish_figure carry the same signal to stderr and the exit code).
      if (std::FILE* f = std::fopen(path.c_str(), "a")) {
        std::fprintf(f,
                     "# PARTIAL: %lld cells deferred by cell budget; resume "
                     "with the same --store-dir to finish\n",
                     static_cast<long long>(deferred_cells_ref()));
        std::fclose(f);
      }
      std::printf("[csv] %s (PARTIAL: %lld cells deferred)\n", path.c_str(),
                  static_cast<long long>(deferred_cells_ref()));
    } else {
      std::printf("[csv] %s\n", path.c_str());
    }
  }
  std::fflush(stdout);
}

// Writes a perf-trajectory file (BENCH_*.json) as one JSON line. CI diffs
// these between runs, so field values are raw numbers, not strings.
inline bool write_bench_json(const std::string& name, const Json& json) {
  if (worker_mode_ref()) {
    std::printf("[worker] %s: emission suppressed (coordinator emits)\n",
                name.c_str());
    return true;
  }
  const std::string path = out_path(name);
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "%s\n", json.dump().c_str());
  std::fclose(f);
  std::printf("[json] %s\n", path.c_str());
  return true;
}

}  // namespace winofault::bench
