#include "bench.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>
#include <mutex>
#include <stdexcept>

namespace kronbench {
namespace {

struct Event {
  const char* name;
  std::uint64_t id, parent, op;
  std::int64_t start, end;
  std::uint32_t tid;
};

std::atomic<bool> g_tracing{false};
std::atomic<std::uint64_t> g_next_id{1};
std::atomic<std::uint32_t> g_next_tid{1};
std::mutex g_events_mu;
std::vector<Event> g_events; // guarded by g_events_mu

thread_local const Span* tl_current = nullptr;
thread_local std::uint32_t tl_tid = 0;

std::uint32_t thread_id() {
  if (tl_tid == 0) tl_tid = g_next_tid.fetch_add(1);
  return tl_tid;
}

/// Layer of a span: its name up to the first '.'.
std::string layer_of(const char* name) {
  const std::string s(name);
  return s.substr(0, s.find('.'));
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

} // namespace

void set_tracing(bool on) { g_tracing.store(on); }

Span::Span(const char* name) {
  const Span* p = tl_current;
  open(name, p != nullptr ? p->id_ : 0, p != nullptr ? p->op_ : 0);
}

Span::Span(const char* name, const Span& parent) {
  open(name, parent.id_, parent.op_);
}

void Span::open(const char* name, std::uint64_t parent, std::uint64_t op) {
  name_ = name;
  id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
  parent_ = parent;
  op_ = op != 0 ? op : id_;
  prev_ = tl_current;
  tl_current = this;
  start_ = now_ns();
}

double Span::stop() {
  if (seconds_ >= 0) return seconds_;
  const std::int64_t end = now_ns();
  seconds_ = static_cast<double>(end - start_) * 1e-9;
  tl_current = prev_;
  if (g_tracing.load(std::memory_order_relaxed)) {
    const std::lock_guard<std::mutex> lock(g_events_mu);
    g_events.push_back({name_, id_, parent_, op_, start_, end, thread_id()});
  }
  return seconds_;
}

Span::~Span() { stop(); }

void write_trace(const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace " + path);
  const std::lock_guard<std::mutex> lock(g_events_mu);
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < g_events.size(); ++i) {
    const Event& e = g_events[i];
    char buf[160];
    std::snprintf(buf, sizeof buf, "\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                  "\"ts\":%.3f,\"dur\":%.3f,",
                  e.tid, static_cast<double>(e.start) * 1e-3,
                  static_cast<double>(e.end - e.start) * 1e-3);
    out << (i == 0 ? "" : ",") << "\n{\"name\":\"" << json_escape(e.name)
        << "\",\"cat\":\"" << json_escape(layer_of(e.name)) << "\","
        << buf << "\"args\":{\"id\":" << e.id << ",\"parent\":" << e.parent
        << ",\"op\":" << e.op << "}}";
  }
  out << "\n]}\n";
  if (!out) throw std::runtime_error("failed writing trace " + path);
}

void serve_slices(const std::function<void(double, bool)>& slice) {
  std::printf("ready\n");
  std::fflush(stdout);
  std::string line;
  while (std::getline(std::cin, line)) {
    if (line == "end") return;
    std::istringstream in(line);
    std::string cmd;
    double seconds = 0;
    int traced = 0;
    if (!(in >> cmd >> seconds >> traced) || cmd != "run" || seconds <= 0) {
      throw std::runtime_error("bad command: " + line);
    }
    slice(seconds, traced != 0);
    std::printf("done\n");
    std::fflush(stdout);
  }
  throw std::runtime_error("stdin closed before \"end\"");
}

PinnedCpu::PinnedCpu(int turn) {
  if (sched_getaffinity(0, sizeof saved_, &saved_) != 0) {
    throw std::runtime_error("sched_getaffinity failed");
  }
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &saved_)) cpus.push_back(c);
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[static_cast<std::size_t>(turn) % cpus.size()], &one);
  if (sched_setaffinity(0, sizeof one, &one) != 0) {
    throw std::runtime_error("sched_setaffinity failed");
  }
}

PinnedCpu::~PinnedCpu() { sched_setaffinity(0, sizeof saved_, &saved_); }

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) throw std::runtime_error("quantile of no samples");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

void Report::config(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  config_[key] = buf;
}

void Report::print(std::FILE* out) const {
  std::fprintf(out, "{\"attempted\":%llu,\"failed\":%llu,\"metrics\":{",
               static_cast<unsigned long long>(attempted_),
               static_cast<unsigned long long>(failed_));
  bool first = true;
  for (const auto& [name, v] : metrics_) {
    if (!std::isfinite(v.value)) {
      throw std::runtime_error("metric " + name + " is not finite");
    }
    std::fprintf(out, "%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                 first ? "" : ",", json_escape(name).c_str(), v.value,
                 v.unit);
    first = false;
  }
  std::fprintf(out, "},\"config\":{");
  first = true;
  for (const auto& [key, value] : config_) {
    std::fprintf(out, "%s\"%s\":\"%s\"", first ? "" : ",",
                 json_escape(key).c_str(), json_escape(value).c_str());
    first = false;
  }
  std::fprintf(out, "}}\n");
}

} // namespace kronbench
