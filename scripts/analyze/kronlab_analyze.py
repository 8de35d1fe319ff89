#!/usr/bin/env python3
"""kronlab_analyze — semantic AST-level analysis for the kronlab tree.

Five project-specific rules (see `--list-rules`) over one engine: a
dependency-free token/scope frontend, deterministic everywhere,
including bare containers.

Usage:
  kronlab_analyze.py --compdb build/compile_commands.json   # whole tree
  kronlab_analyze.py --rules lock-order,registry            # subset
  kronlab_analyze.py --self-test                            # fixtures
  kronlab_analyze.py --emit-audit > scripts/analyze/memory_order.audit

Exit codes: 0 clean, 1 findings, 2 usage/internal error.

Suppression: `// kronlab-analyze: allow(<rule>) <justification>` on the
finding's line or the line above.  The justification is mandatory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from analyzer import RULES, __version__  # noqa: E402
from analyzer import internal_frontend  # noqa: E402
from analyzer import rules as rules_mod  # noqa: E402
from analyzer.ir import Finding  # noqa: E402
from analyzer.project import (AllowIndex, files_from_compdb,  # noqa: E402
                              files_from_tree, headers_for, repo_root,
                              validate_rules)

RULE_HELP = {
    "lock-order":
        "Builds the cross-TU lock acquisition graph over annotated "
        "common/sync.hpp mutexes (RAII guards, manual lock/unlock, and "
        "one call level) and fails on cycles — the deadlock precondition.",
    "blocking-under-lock":
        "Flags send/recv/poll/fsync/fdatasync/sleep_for/connect/"
        "write_frame and friends reachable while a MutexLock is live. "
        "CondVar::wait is exempt (it releases the mutex).",
    "memory-order":
        "Every atomic operation in src/ must have a justified entry in "
        "scripts/analyze/memory_order.audit keyed by (file, var, op, "
        "order) with a site count; flags unaudited sites, stale entries, "
        "and count drift.  --emit-audit writes a skeleton.",
    "unchecked-read":
        "Checksum/parse/verify results ([[nodiscard]] APIs in io/, grb/, "
        "serve/protocol, dist/comm) must be consumed: flags plain "
        "discards and (void)-cast discards in src/, tools/, bench/.",
    "registry":
        "KRONLAB_* env-var literals and KRNL* wire magics are defined "
        "exactly once, in common/registry.hpp, and documented in "
        "README.md/DESIGN.md; flags stray literals and undocumented "
        "names.",
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="kronlab_analyze.py",
                                 description=__doc__.split("\n\n")[0])
    ap.add_argument("--compdb", help="compile_commands.json to take the "
                                     "file list from")
    ap.add_argument("--root", help="repository root (default: auto)")
    ap.add_argument("--rules", help="comma-separated subset of rules")
    ap.add_argument("--audit",
                    help="memory-order audit file (default: "
                         "scripts/analyze/memory_order.audit)")
    ap.add_argument("--report", help="write a JSON report here")
    ap.add_argument("--list-rules", action="store_true")
    ap.add_argument("--self-test", action="store_true",
                    help="run the fixture battery")
    ap.add_argument("--emit-audit", action="store_true",
                    help="print a memory-order audit skeleton for the "
                         "current tree and exit")
    ap.add_argument("--max-findings", type=int, default=200)
    return ap


def list_rules() -> None:
    print(f"kronlab_analyze {__version__} — rules:")
    for r in RULES:
        print(f"\n  {r}")
        for line in RULE_HELP[r].split(". "):
            line = line.strip()
            if line:
                print(f"      {line.rstrip('.')}.")


def analyze_tree(args) -> int:
    root = os.path.abspath(args.root or repo_root())
    if args.compdb:
        sources = files_from_compdb(args.compdb)
        files = headers_for(sources, root)
    else:
        files = files_from_tree(root)
    files = [f for f in files if os.path.exists(f)]
    audit = args.audit or os.path.join(root, "scripts", "analyze",
                                       "memory_order.audit")
    functions, _mutexes = internal_frontend.lower_files(files)
    if args.emit_audit:
        sys.stdout.write(rules_mod.emit_audit_skeleton(
            [fn for fn in functions
             if rules_mod._in_dir(rules_mod._rel(fn.file, root),
                                  ("src",))], root))
        return 0
    selected = validate_rules(args.rules.split(",")) if args.rules \
        else list(RULES)
    allow = AllowIndex()
    findings = rules_mod.run_rules(selected, functions, files, root,
                                   allow, audit)
    report = {
        "version": __version__,
        "rules": selected,
        "files": len(files),
        "functions": len(functions),
        "findings": [{"rule": f.rule, "file": rules_mod._rel(f.file, root),
                      "line": f.line, "message": f.message}
                     for f in findings],
    }
    if args.report:
        with open(args.report, "w", encoding="utf-8") as f:
            json.dump(report, f, indent=2)
            f.write("\n")
    for f in findings[:args.max_findings]:
        print(Finding(f.rule, rules_mod._rel(f.file, root), f.line,
                      f.message).render())
    if len(findings) > args.max_findings:
        print(f"... and {len(findings) - args.max_findings} more")
    n = len(findings)
    print(f"kronlab_analyze: {len(files)} files, "
          f"{len(functions)} functions, {n} finding(s)")
    return 1 if findings else 0


# ---------------------------------------------------------------------------
# self-test

EXPECT_RE = __import__("re").compile(
    r"ANALYZE-EXPECT:\s*([a-z-]+)\s+(\d+)")


def _unit_expectations(paths) -> dict:
    want: dict = {}
    for p in paths:
        try:
            with open(p, "r", encoding="utf-8", errors="replace") as f:
                for line in f:
                    m = EXPECT_RE.search(line)
                    if m:
                        want[m.group(1)] = want.get(m.group(1), 0) + \
                            int(m.group(2))
        except OSError:
            pass
    return want


def run_self_test() -> int:
    fixtures = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "fixtures")
    failures = 0
    units = 0
    for rule in sorted(os.listdir(fixtures)):
        rule_dir = os.path.join(fixtures, rule)
        if not os.path.isdir(rule_dir):
            continue
        for entry in sorted(os.listdir(rule_dir)):
            path = os.path.join(rule_dir, entry)
            if os.path.isdir(path):
                unit = sorted(
                    os.path.join(path, n) for n in os.listdir(path)
                    if n.endswith((".cpp", ".hpp", ".h")))
                unit_root = path
                audit = os.path.join(path, "memory_order.audit")
            elif entry.endswith(".cpp"):
                unit = [path]
                unit_root = rule_dir
                audit = os.path.splitext(path)[0] + ".audit"
            else:
                continue
            units += 1
            want = {r: n for r, n in _unit_expectations(unit).items()
                    if n > 0}
            functions, _m = internal_frontend.lower_files(unit)
            got_list = rules_mod.run_rules(
                [rule] if rule in RULES else list(RULES),
                functions, unit, unit_root, AllowIndex(), audit,
                scope_all=True)
            got: dict = {}
            for f in got_list:
                got[f.rule] = got.get(f.rule, 0) + 1
            if got != want:
                failures += 1
                print(f"FAIL {rule}/{entry}: "
                      f"expected {want or '{}'}, got {got or '{}'}")
                for f in got_list:
                    print("    " + Finding(
                        f.rule, os.path.basename(f.file), f.line,
                        f.message).render())
            else:
                print(f"ok   {rule}/{entry}")
    print(f"self-test: {units} fixture unit(s), {failures} failure(s)")
    return 1 if failures else 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        list_rules()
        return 0
    if args.self_test:
        return run_self_test()
    try:
        return analyze_tree(args)
    except ValueError as e:
        print(f"kronlab_analyze: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
