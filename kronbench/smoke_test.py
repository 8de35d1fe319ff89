#!/usr/bin/env python3
"""Smoke test of the kronlab benchmark at tiny sizes.

    python3 kronbench/smoke_test.py      # from the root of a checkout

Runs kronbench/run.py --tiny on both workloads and two seeds, and checks
that every metric BENCHMARK.json names comes out with its unit, that one
seed gives the same inputs twice, that traced output parses, that each
phase's correctness gate fires on a deliberately corrupted expectation,
and that a stray KRONLAB_* knob is reported rather than obeyed.  Exits 1
on the first failure.
"""

import json
import math
import os
import subprocess
import sys

RUN = [sys.executable, os.path.join(os.path.dirname(__file__), "run.py")]
PHASES = ("gen_store", "count_verify", "serve_probe")


def run(*args, env=None):
    res = subprocess.run(RUN + ["--tiny", "--seconds", "2", *args],
                         stdout=subprocess.PIPE, text=True, env=env)
    lines = res.stdout.strip().splitlines()
    return res.returncode, [json.loads(l) for l in lines if l.startswith("{")]


def check(ok, what):
    if not ok:
        sys.exit(f"smoke test FAILED: {what}")
    print(f"ok  {what}")


def check_metrics(result, wanted, what):
    got = result["metrics"]
    check(set(got) == {m["name"] for m in wanted},
          f"{what}: exactly the metrics BENCHMARK.json names")
    for m in wanted:
        v = got[m["name"]]
        check(v["unit"] == m["unit"] and math.isfinite(v["value"]),
              f"{what}: {m['name']} = {v['value']:.6g} {v['unit']}")


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "kronbench")

    for workload in ("skewed", "uniform"):
        digests = {}
        for seed in ("1", "2", "1"):
            code, out = run("--workload", workload, "--seed", seed,
                            "--trace", "0")
            what = f"{workload} seed {seed}"
            check(code == 0 and out[-1]["correct"], f"{what}: correct, exit 0")
            check(out[-1]["failed"] == 0 and out[-1]["attempted"] > 0,
                  f"{what}: no failed operations")
            check_metrics(out[-1], spec["end_to_end"], what)
            gen = next(o["gen_store"] for o in out if "gen_store" in o)
            digests.setdefault(seed, set()).add(gen["gen_store.chain_digest"])
        check(len(digests["1"]) == 1, f"{workload}: seed 1 twice, same store")
        check(digests["1"] != digests["2"], f"{workload}: seeds 1, 2 differ")

        code, out = run("--workload", workload, "--seed", "3", "--trace", "1")
        check(code == 0 and out[-1]["correct"],
              f"{workload} traced: correct, shares account for every root")
        check_metrics(out[-1], spec["per_layer"], f"{workload} traced")
        for phase in PHASES:
            with open(os.path.join(build_dir, f"trace-{phase}.json")) as f:
                events = json.load(f)["traceEvents"]
            check(events and all(
                e["ph"] == "X" and e["dur"] >= 0 and
                {"id", "parent", "op"} <= set(e["args"]) for e in events),
                f"{workload} traced: trace-{phase}.json parses, "
                f"{len(events)} spans")

    for phase in PHASES:
        code, out = run("--workload", "skewed", "--seed", "1", "--corrupt",
                        "--phases", phase)
        check(code == 3 and out[-1]["correct"] is False,
              f"{phase}: corrupted expectation fails the gate, exit 3")

    env = dict(os.environ, KRONLAB_THREADS="1", KRONLAB_NO_AGGREGATE="1")
    code, out = run("--workload", "uniform", "--seed", "1", env=env)
    check(code == 0 and out[0]["config"]["ignored_env"] ==
          ["KRONLAB_NO_AGGREGATE", "KRONLAB_THREADS"],
          "stray KRONLAB_* knobs are reported and dropped")
    phases = {k: v for o in out for k, v in o.items() if k in PHASES}
    check(phases["count_verify"]["env.KRONLAB_THREADS"] == "(unset)" and
          phases["count_verify"]["count_verify.aggregate"] == "true",
          "the phases never see them")
    print("smoke test passed")


if __name__ == "__main__":
    main()
