// kronbench: one phase of the kronlab benchmark per process.
//
//   kronbench --phase gen_store|count_verify|serve_probe
//             --profile skewed|uniform --seed N --threads T
//             --work-dir DIR [--trace 0|1 --trace-out FILE]
//             [--tiny] [--corrupt]
//
// Sets up, prints "ready", then measures in the slices it is handed on
// stdin (see serve_slices in bench.hpp).  On "end" it prints one JSON
// object as its last line: attempted/failed operation counts, the
// phase's metrics (end-to-end with --trace 0, per-layer with --trace 1)
// and the resolved configuration.  A failed correctness gate exits 3,
// bad usage 2, any other error 1.  kronbench/run.py drives the three
// phases and merges their objects.

#include <sys/resource.h>

#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "bench.hpp"

using namespace kronbench;

namespace {

[[noreturn]] void usage(const std::string& msg) {
  std::fprintf(stderr, "kronbench: %s\n", msg.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--phase") {
      o.phase = value();
    } else if (arg == "--profile") {
      o.profile = value();
    } else if (arg == "--seed") {
      o.seed = std::stoull(value());
    } else if (arg == "--threads") {
      o.threads = std::stoul(value());
    } else if (arg == "--work-dir") {
      o.work_dir = value();
    } else if (arg == "--trace") {
      o.trace = value() == "1";
    } else if (arg == "--trace-out") {
      o.trace_out = value();
    } else if (arg == "--tiny") {
      o.tiny = true;
    } else if (arg == "--corrupt") {
      o.corrupt = true;
    } else {
      usage("unknown argument " + arg);
    }
  }
  if (o.threads == 0) usage("--threads must be positive");
  if (o.trace && o.trace_out.empty()) usage("--trace 1 needs --trace-out");
  return o;
}

} // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  Report r;
  try {
    if (o.phase == "gen_store") {
      run_gen_store(o, r);
    } else if (o.phase == "count_verify") {
      run_count_verify(o, r);
    } else if (o.phase == "serve_probe") {
      run_serve_probe(o, r);
    } else {
      usage("unknown phase " + o.phase);
    }
  } catch (const gate_failure& g) {
    std::fprintf(stderr, "kronbench: %s: correctness gate failed: %s\n",
                 o.phase.c_str(), g.what.c_str());
    return 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "kronbench: %s: %s\n", o.phase.c_str(), e.what());
    return 1;
  }
  if (o.trace) write_trace(o.trace_out);
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  r.metric("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB");
  r.config("phase", o.phase);
  r.config("profile", o.profile);
  r.config("seed", std::to_string(o.seed));
  r.config("threads", static_cast<double>(o.threads));
  for (const char* knob : {"KRONLAB_THREADS", "KRONLAB_NO_AGGREGATE",
                           "KRONLAB_STATS", "KRONLAB_METRICS",
                           "KRONLAB_TRACE", "KRONLAB_LOG"}) {
    const char* v = std::getenv(knob);
    r.config(std::string("env.") + knob, v != nullptr ? v : "(unset)");
  }
  r.print(stdout);
  return 0;
}
