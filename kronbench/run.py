#!/usr/bin/env python3
"""kronlab benchmark: build, run the three phases, print one JSON result.

    python3 kronbench/run.py --workload skewed|uniform --seed N \
        --seconds S --trace 0|1 [--tiny] [--corrupt]

Run from the root of a checkout.  It builds kronbench/ (the kronlab
library from src/ plus the phase runner) into $CARGO_TARGET_DIR/kronbench
(default .bench_build/kronbench), then runs gen_store, count_verify and
serve_probe, each in its own process, on inputs generated from --seed
under the workload's profile.  The last line of stdout is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every end-to-end metric of BENCHMARK.json (--trace 0) or every
per-layer metric (--trace 1).  A traced run also prints each layer's self
time and share of the end-to-end region it sits in, checks that the
shares account for the whole region, and leaves Chrome trace-event files
in the build directory.  A failed correctness gate prints "correct":
false and exits 3; a failed build or run exits 1 without a result.
"""

import argparse
import json
import os
import select
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
PHASES = ("gen_store", "count_verify", "serve_probe")
# Share of --seconds each phase measures for, in SLICES turns each.
# count_verify's iterations are the longest (~2 s on a 4-core VM), so it
# gets the largest share.
PHASE_SHARE = {"gen_store": 0.3, "count_verify": 0.4, "serve_probe": 0.3}
SLICES = 8
TIMEOUT_S = 170  # for all phases together, set-up and measuring
DEFAULT_SEED = 1  # held out for later claims, never used in tuning: 90210

# The end-to-end metric each per-layer metric should move.
LAYER_TARGETS = {
    "count_1t_s": "(end-to-end, not gated: 10-seed spread up to 0.18)",
    "truth_check_s": "(end-to-end, not gated: 10-seed spread up to 0.18)",
    "serve_p99_ms": "(end-to-end, not gated: 10-seed spread up to 0.24)",
    "gen.factors_s": "setup_s",
    "kron.collapse_s": "setup_s (gen_store)",
    "kron.materialize_s": "setup_s (count_verify)",
    "kron.stream_records_per_s": "gen_records_per_s",
    "kron.vertex_truth_s": "truth_check_s",
    "kron.edge_truth_s": "truth_check_s",
    "kron.oracle_build_s": "setup_s (serve_probe)",
    "kron.oracle_probe_ns": "serve_p50_ms, serve_probes_per_s",
    "io.create_s": "gen_records_per_s",
    "io.write_s": "gen_records_per_s",
    "io.close_s": "gen_records_per_s",
    "io.publish_s": "gen_records_per_s",
    "io.bytes_written": "gen_records_per_s",
    "io.sync_s": "gen_records_per_s (real disk; reported, not gated)",
    "io.syncs": "gen_records_per_s",
    "io.disk_generate_s": "gen_records_per_s (real disk; reported, not gated)",
    "io.read_s": "verify_records_per_s, rescan_s",
    "io.bytes_read": "verify_records_per_s, rescan_s",
    "io.read_amplification": "verify_records_per_s, rescan_s",
    "io.validator_s": "gen_records_per_s, verify_records_per_s",
    "graph.degree_order_s": "count_s",
    "graph.degree_order_1t_s": "count_1t_s",
    "graph.vertex_count_s": "count_s",
    "graph.edge_count_s": "count_s",
    "graph.vertex_count_1t_s": "count_1t_s",
    "graph.edge_count_1t_s": "count_1t_s",
    "graph.wedges_per_s": "count_s",
    "parallel.speedup": "count_s",
    "dist.generate_shard_s": "dist_count_s",
    "dist.exchange_s": "dist_count_s",
    "dist.rank_skew": "dist_count_s",
    "dist.frames_enqueued": "dist_count_s",
    "dist.batches_sent": "dist_count_s",
    "dist.retries": "dist_count_s",
    "serve.server_construct_s": "setup_s (serve_probe)",
    "serve.client_codec_ns": "serve_p50_ms",
    "serve.server_overhead_ms": "serve_p50_ms",
    "serve.cache_hit_ratio": "serve_probes_per_s",
    "serve.overloaded": "ok_frac",
    "open_p99_ms": "(end-to-end, not gated: does not repeat)",
    "serve.open_late_p99_ms": "open_p99_ms",
    "obs.trace_overhead_frac": "every metric",
}

# Spans whose duration is an end-to-end figure; the trace check shows
# that the layer shares under each add up to all of it.
E2E_ROOTS = {
    "io.generate_durable": "gen_records_per_s",
    "io.rescan": "rescan_s",
    "io.verify_store": "verify_records_per_s",
    "graph.count": "count_s",
    "graph.count_1t": "count_1t_s",
    "kron.truth_check": "truth_check_s",
    "dist.count": "dist_count_s",
    "serve.frame": "serve_p50_ms",
    "setup": "setup_s",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(root):
    build_dir = os.path.join(
        root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "kronbench")
    binary = os.path.join(build_dir, "kronbench")
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "kronbench"])
    for cmd in steps:
        res = subprocess.run(cmd, stdout=subprocess.PIPE,
                             stderr=subprocess.STDOUT, text=True)
        if res.returncode != 0:
            log(res.stdout[-4000:])
            if cmd[1] == "-S":  # a failed configure leaves a broken cache
                shutil.rmtree(build_dir, ignore_errors=True)
            raise SystemExit("kronbench: build failed: " + " ".join(cmd))
    return build_dir, binary


def child_env():
    """The environment minus every KRONLAB_* knob, so a stray setting in
    the shell cannot change the numbers; the dropped names are reported."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("KRONLAB_")}
    dropped = sorted(k for k in os.environ if k.startswith("KRONLAB_"))
    return env, dropped


class GateFailed(Exception):
    """A phase exited 3: one of its correctness gates failed."""


class Phase:
    """One phase process, driven line by line over its stdin/stdout."""

    def __init__(self, binary, phase, args, threads, work_dir, trace_out,
                 env):
        cmd = [binary, "--phase", phase, "--profile", args.workload,
               "--seed", str(args.seed), "--threads", str(threads),
               "--work-dir", work_dir, "--trace", str(args.trace)]
        if args.trace:
            cmd += ["--trace-out", trace_out]
        if args.tiny:
            cmd.append("--tiny")
        if args.corrupt:
            cmd.append("--corrupt")
        self.name = phase
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True,
                                     env=env)

    def expect(self, word, deadline):
        """Wait for the line `word`, or the process's end."""
        while True:
            left = deadline - time.monotonic()
            ready, _, _ = select.select([self.proc.stdout], [], [],
                                        max(left, 0))
            if not ready:
                raise SystemExit(f"kronbench: {self.name} ran past the "
                                 f"{TIMEOUT_S} s limit")
            line = self.proc.stdout.readline()
            if not line:
                self.check(self.proc.wait())
            if line.strip() == word:
                return

    def check(self, code):
        if code == 3:
            raise GateFailed(self.name)
        if code != 0:
            raise SystemExit(f"kronbench: {self.name} exited {code}")

    def send(self, line):
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()

    def finish(self, deadline):
        try:
            out, _ = self.proc.communicate(
                "end\n", timeout=max(deadline - time.monotonic(), 1))
        except subprocess.TimeoutExpired:
            raise SystemExit(f"kronbench: {self.name} ran past the "
                             f"{TIMEOUT_S} s limit")
        self.check(self.proc.returncode)
        return json.loads(out.strip().splitlines()[-1])

    def stop(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def run_phases(binary, phases, args, threads, build_dir, work_dir, env):
    """Start every phase, let each set up, then hand them SLICES measuring
    slices in turn; in a traced run every other slice is traced."""
    deadline = time.monotonic() + TIMEOUT_S
    procs = []
    try:
        for phase in phases:
            procs.append(Phase(binary, phase, args, threads, work_dir,
                               os.path.join(build_dir, f"trace-{phase}.json"),
                               env))
        for p in procs:
            p.expect("ready", deadline)
        for k in range(SLICES):
            for p in procs:
                seconds = args.seconds * PHASE_SHARE[p.name] / SLICES
                p.send(f"run {seconds!r} {int(args.trace and k % 2 == 1)}")
                p.expect("done", deadline)
        return {p.name: p.finish(deadline) for p in procs}
    finally:
        for p in procs:
            p.stop()


def self_times(events):
    """Per span: duration minus the union of its same-thread children.
    Children on other threads (the dist ranks) run in parallel with their
    parent; they are listed apart and do not count against it."""
    by_id = {e["args"]["id"]: e for e in events}
    kids, parallel = {}, {}
    for e in events:
        p = by_id.get(e["args"]["parent"])
        if p is not None:
            into = kids if p["tid"] == e["tid"] else parallel
            into.setdefault(p["args"]["id"], []).append(e)
    out = {}
    for e in events:
        covered, end = 0.0, e["ts"]
        for k in sorted(kids.get(e["args"]["id"], []), key=lambda k: k["ts"]):
            lo, hi = max(k["ts"], end), k["ts"] + k["dur"]
            if hi > lo:
                covered += hi - lo
                end = hi
        out[e["args"]["id"]] = e["dur"] - covered
    return out, kids, parallel


def trace_report(phase, path):
    """Print each layer's self time and share under every end-to-end
    root span, and check the shares account for the whole root."""
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    selfs, kids, parallel = self_times(events)
    ok = True
    by_id = {e["args"]["id"]: e for e in events}
    for root_name, metric in E2E_ROOTS.items():
        roots = [e for e in events if e["name"] == root_name and
                 by_id[e["args"]["op"]]["name"] != "gen_store.disk_pass"]
        if not roots:
            continue
        total = sum(e["dur"] for e in roots)
        per_name, beside = {}, {}
        stack = list(roots)
        while stack:
            e = stack.pop()
            per_name[e["name"]] = per_name.get(e["name"], 0.0) + \
                selfs[e["args"]["id"]]
            stack.extend(kids.get(e["args"]["id"], []))
            for k in parallel.get(e["args"]["id"], []):
                beside[k["name"]] = beside.get(k["name"], 0.0) + k["dur"]
        accounted = sum(per_name.values())
        print(f"[{phase}] {metric} <- {root_name}: {len(roots)} spans, "
              f"{total / 1e6:.4f} s")
        for name, t in sorted(per_name.items(), key=lambda kv: -kv[1]):
            print(f"    {name.split('.')[0]:<8} {name:<36} "
                  f"self {t / 1e6:10.6f} s  {100 * t / total:6.2f}%")
        for name, t in sorted(beside.items()):
            print(f"    {name.split('.')[0]:<8} {name:<36} "
                  f"{t / 1e6:10.6f} s summed over parallel threads")
        if abs(accounted - total) > 1e-6 * total + 1.0:
            print(f"    shares account for {accounted:.1f} of {total:.1f} us")
            ok = False
    return ok


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=["skewed", "uniform"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    ap.add_argument("--corrupt", action="store_true",
                    help="flip one expected value: every gate must fire")
    ap.add_argument("--phases", default=",".join(PHASES),
                    help="comma-separated subset (smoke tests only)")
    args = ap.parse_args()

    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build_dir, binary = build(root)
    env, dropped = child_env()
    threads = len(os.sched_getaffinity(0))
    print(json.dumps({"config": {"threads": threads, "workload": args.workload,
                                 "seed": args.seed, "seconds": args.seconds,
                                 "trace": args.trace,
                                 "ignored_env": dropped}}))
    if dropped:
        log("kronbench: ignoring " + ", ".join(dropped))

    work_dir = os.path.join(build_dir, f"work-{os.getpid()}")
    phases = args.phases.split(",")
    t0 = time.monotonic()
    try:
        os.makedirs(work_dir, exist_ok=True)
        results = run_phases(binary, phases, args, threads, build_dir,
                             work_dir, env)
    except GateFailed as failed:
        log(f"kronbench: {failed} failed a correctness gate")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 3
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    log(f"kronbench: phases ran {time.monotonic() - t0:.1f} s")
    for phase, res in results.items():
        print(json.dumps({phase: res["config"]}))

    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    metrics = {}
    for phase, r in results.items():
        for name, m in r["metrics"].items():
            if name in ("setup_s", "gen.factors_s"):
                m = {"value": metrics.get(name, {"value": 0})["value"] +
                     m["value"], "unit": m["unit"]}
            elif name == "peak_rss_mb":
                m = max(m, metrics.get(name, m), key=lambda x: x["value"])
            metrics[name] = m
    metrics["ok_frac"] = {"value": (attempted - failed) / attempted,
                          "unit": "ratio"}
    correct = True
    if args.trace:
        # Mean over phases of traced / untraced headline time, minus 1.
        ratios = [metrics[f"_{p}.traced_s"]["value"] /
                  metrics[f"_{p}.untraced_s"]["value"] for p in phases]
        metrics = {k: v for k, v in metrics.items() if not k.startswith("_")}
        metrics["obs.trace_overhead_frac"] = {
            "value": sum(ratios) / len(ratios) - 1, "unit": "ratio"}
        for phase in phases:
            correct &= trace_report(
                phase, os.path.join(build_dir, f"trace-{phase}.json"))
        for m in wanted:
            got = metrics.get(m["name"], {"value": float("nan"), "unit": "?"})
            print(f"{m['name']:<28} {got['value']:>16.6g} {got['unit']:<6}"
                  f" -> {LAYER_TARGETS.get(m['name'], '?')}")

    # A full run reports exactly the metrics BENCHMARK.json names.
    out = {}
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None and len(phases) < len(PHASES):
            continue
        if got is None or got["unit"] != m["unit"]:
            raise SystemExit(f"kronbench: metric {m['name']} missing or "
                             f"not in {m['unit']}: {got}")
        out[m["name"]] = got
    # A refused frame (`overloaded`) is a failed operation, counted in
    # `failed` and ok_frac, not a wrong answer.
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0 if correct else 3


if __name__ == "__main__":
    sys.exit(main())
