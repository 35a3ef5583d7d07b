#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

namespace perfbench {

namespace {

struct Record {
  const char* name;
  std::int64_t id;
  std::int64_t parent;
  std::int64_t run;
  std::int64_t start_ns;
  std::int64_t end_ns;
  int tid;
};

std::atomic<bool> g_enabled{false};
std::atomic<std::int64_t> g_run{0};
std::atomic<std::int64_t> g_next_id{0};
std::atomic<int> g_next_tid{0};
std::mutex g_mu;
std::vector<Record> g_records;  // guarded by g_mu

thread_local std::vector<std::int64_t> tl_stack;
thread_local int tl_tid = -1;

int thread_id() {
  if (tl_tid < 0) tl_tid = g_next_tid.fetch_add(1);
  return tl_tid;
}

}  // namespace

std::int64_t now_ns() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

void trace_enable(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool trace_enabled() { return g_enabled.load(std::memory_order_relaxed); }
void trace_set_run(std::int64_t run) { g_run.store(run); }

std::int64_t trace_current() {
  return tl_stack.empty() ? -1 : tl_stack.back();
}

Span::Span(const char* name, std::int64_t parent) : name_(name) {
  if (!trace_enabled()) return;
  id_ = g_next_id.fetch_add(1);
  parent_ = parent >= 0 ? parent : trace_current();
  tl_stack.push_back(id_);
  start_ns_ = now_ns();
}

Span::~Span() {
  if (id_ < 0) return;
  const std::int64_t end = now_ns();
  tl_stack.pop_back();
  const Record record{name_,     id_, parent_,    g_run.load(),
                      start_ns_, end, thread_id()};
  std::lock_guard<std::mutex> lock(g_mu);
  g_records.push_back(record);
}

std::map<std::string, SpanStats> span_stats() {
  std::vector<Record> records;
  {
    std::lock_guard<std::mutex> lock(g_mu);
    records = g_records;
  }
  std::unordered_map<std::int64_t, std::vector<std::pair<std::int64_t,
                                                         std::int64_t>>>
      children;
  for (const Record& r : records) {
    if (r.parent >= 0) children[r.parent].emplace_back(r.start_ns, r.end_ns);
  }
  std::map<std::string, SpanStats> stats;
  for (const Record& r : records) {
    const double dur = static_cast<double>(r.end_ns - r.start_ns);
    double covered = 0;
    if (auto it = children.find(r.id); it != children.end()) {
      auto& kids = it->second;
      std::sort(kids.begin(), kids.end());
      std::int64_t lo = -1, hi = -1;
      for (const auto& [s, e] : kids) {
        const std::int64_t cs = std::max(s, r.start_ns);
        const std::int64_t ce = std::min(e, r.end_ns);
        if (ce <= cs) continue;
        if (cs > hi) {
          if (hi > lo) covered += static_cast<double>(hi - lo);
          lo = cs;
          hi = ce;
        } else {
          hi = std::max(hi, ce);
        }
      }
      if (hi > lo) covered += static_cast<double>(hi - lo);
    }
    SpanStats& s = stats[r.name];
    ++s.calls;
    s.total_us += dur / 1e3;
    s.self_us += (dur - covered) / 1e3;
  }
  return stats;
}

double mean_self_us(const std::map<std::string, SpanStats>& stats,
                    const std::string& name) {
  const auto it = stats.find(name);
  if (it == stats.end() || it->second.calls == 0) return 0.0;
  return it->second.self_us / static_cast<double>(it->second.calls);
}

bool write_chrome_trace(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(g_mu);
  std::fprintf(f, "{\"traceEvents\":[");
  for (std::size_t i = 0; i < g_records.size(); ++i) {
    const Record& r = g_records[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                 "\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"id\":%lld,\"parent\":%lld,\"run\":%lld}}",
                 i == 0 ? "" : ",", r.name, r.tid,
                 static_cast<double>(r.start_ns) / 1e3,
                 static_cast<double>(r.end_ns - r.start_ns) / 1e3,
                 static_cast<long long>(r.id),
                 static_cast<long long>(r.parent),
                 static_cast<long long>(r.run));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
