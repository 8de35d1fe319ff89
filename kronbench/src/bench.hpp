// Shared pieces of the kronbench phases: command-line options, the span
// recorder that both times and traces calls into kronlab's public API,
// order statistics, and the JSON report each phase prints.
//
// Every timing in the benchmark comes from a Span around one call into a
// kronlab layer.  With tracing off a Span is just a steady-clock timer;
// with tracing on it also records {name, start, end, parent, op} in
// memory, written out as Chrome trace-event JSON when the phase ends.

#pragma once

#include <sched.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "kronlab/common/types.hpp"

namespace kronbench {

using kronlab::count_t;
using kronlab::index_t;

/// Set-ups each phase makes; setup_s is the median of their times.
inline constexpr int kSetups = 7;

struct Options {
  std::string phase;              ///< gen_store | count_verify | serve_probe
  std::string profile = "skewed"; ///< skewed | uniform
  std::uint64_t seed = 1;
  bool trace = false;
  bool tiny = false;              ///< smoke-test sizes
  bool corrupt = false;           ///< flip one expected value (gate test)
  std::size_t threads = 1;        ///< width of the explicit ThreadPool
  std::string work_dir = ".";     ///< scratch space inside the checkout
  std::string trace_out;          ///< Chrome trace file (trace mode)
};

/// Seed of one generated input: the run seed mixed with a fixed salt per
/// input, so each factor draws an independent stream.
[[nodiscard]] inline std::uint64_t input_seed(const Options& o,
                                              std::uint64_t salt) {
  std::uint64_t z = o.seed * 0x9E3779B97F4A7C15ull + salt;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Turns span recording on or off for the calling process.  Timing is
/// unaffected; only whether finished spans are kept.
void set_tracing(bool on);

/// Write every recorded span as Chrome trace-event JSON.
void write_trace(const std::string& path);

/// A timed, optionally recorded, region.  The parent is the innermost
/// open Span on this thread unless one is given explicitly (for work a
/// parent hands to other threads).  A Span with no parent starts a new
/// operation id; children share their parent's.
class Span {
public:
  explicit Span(const char* name);
  Span(const char* name, const Span& parent);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Close the span now and return its length in seconds.
  double stop();

private:
  void open(const char* name, std::uint64_t parent, std::uint64_t op);

  const char* name_ = nullptr;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  std::uint64_t op_ = 0;
  std::int64_t start_ = 0;
  double seconds_ = -1;
  const Span* prev_ = nullptr;
};

/// Pins the calling thread to one CPU of those it may run on, the
/// `turn`-th modulo their count, until destroyed.  Single-threaded
/// measurements rotate over the CPUs this way: on a VM one vCPU can run
/// 10% slower than another for minutes, and a thread the scheduler
/// leaves on it would carry that into the whole run.
class PinnedCpu {
public:
  explicit PinnedCpu(int turn);
  ~PinnedCpu();
  PinnedCpu(const PinnedCpu&) = delete;
  PinnedCpu& operator=(const PinnedCpu&) = delete;

private:
  cpu_set_t saved_;
};

[[nodiscard]] double median(std::vector<double> v);
/// Linear-interpolated quantile, q in [0, 1].
[[nodiscard]] double quantile(std::vector<double> v, double q);

/// Median over `samples` of `field`: a data member or a function of one
/// sample.
template <typename T, typename F>
[[nodiscard]] double median_of(const std::vector<T>& samples, F field) {
  std::vector<double> x;
  x.reserve(samples.size());
  for (const T& s : samples) x.push_back(std::invoke(field, s));
  return median(std::move(x));
}

/// A correctness gate failed: the phase prints why and exits non-zero.
struct gate_failure {
  std::string what;
};

inline void gate(bool ok, const std::string& what) {
  if (!ok) throw gate_failure{what};
}

/// The JSON object one phase prints as its last line.
class Report {
public:
  void metric(const std::string& name, double value, const char* unit) {
    metrics_[name] = {value, unit};
  }
  void config(const std::string& key, const std::string& value) {
    config_[key] = value;
  }
  void config(const std::string& key, double value);
  void ops(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  void print(std::FILE* out) const;

private:
  struct Value {
    double value;
    const char* unit;
  };
  std::map<std::string, Value> metrics_;
  std::map<std::string, std::string> config_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Run `body` at least `min_iters` times, then again while at least
/// half of an iteration (as long as the last one) fits before `seconds`
/// have passed.  Returns the number of iterations run.
template <typename Fn>
int run_for(double seconds, int min_iters, Fn&& body) {
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  std::int64_t last = 0;
  int i = 0;
  while (i < min_iters || now_ns() + last / 2 < deadline) {
    const std::int64_t t0 = now_ns();
    body(i);
    last = now_ns() - t0;
    ++i;
  }
  return i;
}

/// The measuring loop of a phase.  kronbench/run.py keeps the three
/// phase processes alive and hands them measuring slices in turn, so
/// each phase's samples spread over the whole run rather than one third
/// of it: on a shared VM the machine's speed drifts over tens of seconds.
/// Prints "ready", then for each stdin line "run SECONDS TRACED" calls
/// `slice(seconds, traced)` and prints "done"; returns on "end".
void serve_slices(const std::function<void(double, bool)>& slice);

void run_gen_store(const Options& o, Report& r);
void run_count_verify(const Options& o, Report& r);
void run_serve_probe(const Options& o, Report& r);

} // namespace kronbench
