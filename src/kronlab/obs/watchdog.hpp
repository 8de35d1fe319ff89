// kronlab/obs/watchdog.hpp
//
// Stall detection for long-running operations.  Instrumented code brackets
// each potentially-stalling operation (a served request, a ghost-row
// exchange epoch, a durable segment commit) with a StallGuard; a single
// watchdog thread samples the active-operation table and emits a
// structured warning —
//
//   level=warn subsys=watchdog event=stall op=serve/request
//       elapsed_ms=312 deadline_ms=100  (one line)
//
// — for every operation older than the configured deadline, and bumps the
// "watchdog/stalls" registry counter.  Re-warns with exponential spacing
// (deadline, 2x, 4x, ...) so a hung operation stays visible without
// flooding the log.
//
// StallGuard is always armed (no env gate): acquiring a slot is one CAS
// into a fixed lock-free table and releasing is one store, negligible
// next to the macro-operations it brackets.  The watchdog *thread* only
// runs between watchdog_start() and watchdog_stop() — the daemon starts
// one; library code never does.

#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace kronlab::obs {

/// RAII bracket around one potentially-stalling operation.  `what` must
/// outlive the guard (string literal by convention).  If the fixed table
/// is full the guard is inert (counted in "watchdog/slots_exhausted").
class StallGuard {
public:
  explicit StallGuard(const char* what);
  ~StallGuard();
  StallGuard(const StallGuard&) = delete;
  StallGuard& operator=(const StallGuard&) = delete;

private:
  std::size_t slot_;
};

/// One in-flight operation, as sampled from the table.
struct ActiveOp {
  const char* what;
  std::uint64_t elapsed_ns;
};

/// All operations currently in flight for at least `min_elapsed_ns`
/// (pass 0 for everything).  Used by the watchdog thread and by tests.
[[nodiscard]] std::vector<ActiveOp>
active_ops_older_than(std::uint64_t min_elapsed_ns);

struct WatchdogOptions {
  /// Sampling interval.
  std::chrono::milliseconds poll{50};
  /// An operation in flight longer than this is a stall.
  std::chrono::milliseconds deadline{1000};
};

/// Start the watchdog thread (no-op if already running).
void watchdog_start(const WatchdogOptions& options);

/// Stop and join the watchdog thread (no-op if not running).
void watchdog_stop();

[[nodiscard]] bool watchdog_running();

} // namespace kronlab::obs
