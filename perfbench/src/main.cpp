// wfbench: the repository benchmark's runner (see ../README.md).
//
//   wfbench --workload NAME --seed N --seconds S --trace 0|1 --out-dir DIR
//
// Runs one workload and prints, as the last line of stdout, one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// when --trace 0, the per-layer metrics when --trace 1. Stores, sockets and
// the Chrome trace of a traced run go under DIR. Exits 1 when any
// operation failed or an output check disagreed, 2 on bad arguments.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>

#include "common.h"
#include "common/parallel.h"
#include "trace.h"

namespace {

using perfbench::Run;

void usage(const char* prog) {
  std::fprintf(stderr,
               "usage: %s --workload deep_replay|stored_shards "
               "--seed N --seconds S --trace 0|1 --out-dir DIR\n",
               prog);
  std::exit(2);
}

const perfbench::MetricDef* find_def(
    const std::vector<perfbench::MetricDef>& defs, const std::string& name) {
  for (const auto& d : defs) {
    if (name == d.name) return &d;
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  Run run;
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(argv[0]);
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      run.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      run.seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (flag == "--seconds") {
      run.seconds = std::strtod(value, &end);
      have_seconds = end != value && *end == '\0' && run.seconds > 0;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        usage(argv[0]);
      }
      run.trace = value[0] == '1';
    } else if (flag == "--out-dir") {
      run.out_dir = value;
    } else {
      usage(argv[0]);
    }
  }
  void (*workload)(Run&) = nullptr;
  if (run.workload == "deep_replay") workload = perfbench::run_deep_replay;
  if (run.workload == "stored_shards") workload = perfbench::run_stored_shards;
  if (!have_workload || workload == nullptr || !have_seed || !have_seconds ||
      run.out_dir.empty()) {
    usage(argv[0]);
  }
  std::error_code ec;
  std::filesystem::create_directories(run.out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "wfbench: cannot create %s: %s\n",
                 run.out_dir.c_str(), ec.message().c_str());
    return 2;
  }
  // Fixed thread count, never above the host's: campaigns must not fall
  // back to "0 = hardware concurrency".
  run.threads = std::min(4, winofault::default_thread_count());

  const std::vector<perfbench::MetricDef>& defs =
      run.trace ? perfbench::kPerLayer : perfbench::kEndToEnd;
  if (run.trace) {
    // Layers a workload does not exercise report 0.
    for (const auto& d : defs) run.set(d.name, 0.0);
    perfbench::trace_enable(true);
  }
  try {
    workload(run);
  } catch (const std::exception& e) {
    run.check(false, std::string("exception: ") + e.what());
  }
  perfbench::trace_enable(false);
  if (run.trace) {
    const std::string path = run.out_dir + "/trace-" + run.workload + "-" +
                             std::to_string(run.seed) + ".json";
    if (perfbench::write_chrome_trace(path)) {
      std::printf("trace: %s\n", path.c_str());
    }
  }

  for (const auto& [name, value] : run.metrics) {
    if (find_def(defs, name) == nullptr) continue;
    run.check(std::isfinite(value), "metric " + name + " is not finite");
  }
  for (const auto& d : defs) {
    if (run.metrics.count(d.name) == 0) {
      std::fprintf(stderr, "wfbench: metric %s was not measured\n", d.name);
      return 1;
    }
  }
  std::printf("digest: %016llx\n", static_cast<unsigned long long>(run.digest));
  std::printf("error_rate: %.6g (%lld failed / %lld attempted)\n",
              run.attempted > 0 ? static_cast<double>(run.failed) /
                                      static_cast<double>(run.attempted)
                                : 1.0,
              static_cast<long long>(run.failed),
              static_cast<long long>(run.attempted));
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              run.failed == 0 ? "true" : "false",
              static_cast<long long>(run.attempted),
              static_cast<long long>(run.failed));
  for (std::size_t i = 0; i < defs.size(); ++i) {
    double value = run.metrics[defs[i].name];
    if (!std::isfinite(value)) value = 0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", defs[i].name, value, defs[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return run.failed == 0 && run.attempted > 0 ? 0 : 1;
}
