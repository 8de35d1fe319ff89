"""The five project-specific rules, over the engine-neutral IR.

Scope policy (documented in DESIGN.md §15):

* ``lock-order``, ``blocking-under-lock``, ``memory-order`` analyze
  ``src/`` — the library the invariants protect.  Tests and benches
  drive the library from outside the locks.
* ``unchecked-read`` analyzes ``src/``, ``tools/``, ``bench/``; tests
  are exempt (negative-path tests intentionally discard a result while
  expecting a throw).
* ``registry`` analyzes ``src/``, ``tools/``, ``bench/``; tests are
  exempt (golden-byte tests intentionally write raw magic bytes).
"""

from __future__ import annotations

import os
import re
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from . import ir
from .lexer import CHAR, IDENT, STRING, tokenize
from .project import AllowIndex, parse_audit

# ---------------------------------------------------------------------------
# shared helpers


def _rel(path: str, root: str) -> str:
    try:
        return os.path.relpath(path, root)
    except ValueError:
        return path


def _in_dir(rel: str, dirs: Sequence[str]) -> bool:
    return any(rel == d or rel.startswith(d + os.sep) for d in dirs)


def _held_at(fn: ir.Function, upto: int) -> List[Tuple[str, int]]:
    """Locks live just before event index `upto`: (mutex, acquire line)."""
    held: List[Tuple[str, int, Optional[int]]] = []
    for ev in fn.events[:upto]:
        if isinstance(ev, ir.Acquire):
            held.append((ev.mutex, ev.line, ev.scope_end_line))
        elif isinstance(ev, ir.Release):
            for k in range(len(held) - 1, -1, -1):
                if held[k][0] == ev.mutex:
                    held.pop(k)
                    break
    at = fn.events[upto].line if upto < len(fn.events) else None
    out = []
    for mutex, line, scope_end in held:
        if at is not None and scope_end is not None and at > scope_end:
            continue  # RAII guard's block already closed
        out.append((mutex, line))
    return out


# ---------------------------------------------------------------------------
# rule: lock-order


def rule_lock_order(functions: List[ir.Function], root: str,
                    allow: AllowIndex) -> List[ir.Finding]:
    # edges[(a, b)] = list of (file, line, fn-name, how)
    edges: Dict[Tuple[str, str], List[Tuple[str, int, str, str]]] = \
        defaultdict(list)
    by_name: Dict[str, List[ir.Function]] = defaultdict(list)
    direct: Dict[int, Set[str]] = {}
    for fn in functions:
        by_name[fn.name.split("::")[-1]].append(fn)
        direct[id(fn)] = {ev.mutex for ev in fn.events
                          if isinstance(ev, ir.Acquire)}
    for fn in functions:
        for i, ev in enumerate(fn.events):
            if isinstance(ev, ir.Acquire):
                for held, _hline in _held_at(fn, i):
                    if held != ev.mutex:
                        edges[(held, ev.mutex)].append(
                            (fn.file, ev.line, fn.name, "acquires"))
            elif isinstance(ev, ir.Call):
                held_now = _held_at(fn, i)
                if not held_now:
                    continue
                for callee in by_name.get(ev.callee, ()):
                    if "<lambda" in callee.name:
                        continue
                    for m in direct[id(callee)]:
                        for held, _hline in held_now:
                            if held != m:
                                edges[(held, m)].append(
                                    (fn.file, ev.line, fn.name,
                                     f"calls {callee.name} which locks"))
    # cycle detection over the acquisition graph
    graph: Dict[str, Set[str]] = defaultdict(set)
    for (a, b) in edges:
        graph[a].add(b)
    findings: List[ir.Finding] = []
    seen_cycles: Set[Tuple[str, ...]] = set()

    def dfs(node: str, stack: List[str], on_stack: Set[str],
            visited: Set[str]) -> None:
        visited.add(node)
        on_stack.add(node)
        stack.append(node)
        for nxt in sorted(graph.get(node, ())):
            if nxt in on_stack:
                cyc = stack[stack.index(nxt):] + [nxt]
                key = tuple(sorted(set(cyc)))
                if key not in seen_cycles:
                    seen_cycles.add(key)
                    _report_cycle(cyc, edges, allow, findings)
            elif nxt not in visited:
                dfs(nxt, stack, on_stack, visited)
        stack.pop()
        on_stack.discard(node)

    visited: Set[str] = set()
    for node in sorted(graph):
        if node not in visited:
            dfs(node, [], set(), visited)
    return findings


def _report_cycle(cyc: List[str],
                  edges: Dict[Tuple[str, str],
                              List[Tuple[str, int, str, str]]],
                  allow: AllowIndex, findings: List[ir.Finding]) -> None:
    sites = []
    for a, b in zip(cyc, cyc[1:]):
        site = sorted(edges[(a, b)])[0]
        sites.append((a, b) + site)
    # An allow marker on any edge of the cycle declares the ordering
    # intentional (e.g. a leaf mutex never waited on).
    for _a, _b, f, line, _fn, _how in sites:
        if allow.allows(f, line, "lock-order"):
            return
    order = " -> ".join(cyc)
    detail = "; ".join(f"{a}->{b} at {os.path.basename(f)}:{ln} in {fnn}"
                       for a, b, f, ln, fnn, _how in sites)
    f0, l0 = sites[0][2], sites[0][3]
    findings.append(ir.Finding(
        rule="lock-order", file=f0, line=l0,
        message=f"lock acquisition cycle {order} ({detail}) — two threads "
                "taking these locks in opposite orders can deadlock"))


# ---------------------------------------------------------------------------
# rule: blocking-under-lock

BLOCKING_CALLS = {
    "send", "recv", "recv_any", "recv_deadline", "poll", "fsync",
    "fdatasync", "sleep_for", "connect", "accept", "write_frame",
    "read_frame", "join", "allreduce_sum", "allgather", "alltoall",
}


def rule_blocking_under_lock(functions: List[ir.Function], root: str,
                             allow: AllowIndex) -> List[ir.Finding]:
    findings: List[ir.Finding] = []
    by_name: Dict[str, List[ir.Function]] = defaultdict(list)
    for fn in functions:
        by_name[fn.name.split("::")[-1]].append(fn)

    def direct_blocking(fn: ir.Function) -> List[ir.Call]:
        return [ev for ev in fn.events
                if isinstance(ev, ir.Call) and ev.callee in BLOCKING_CALLS]

    for fn in functions:
        for i, ev in enumerate(fn.events):
            if not isinstance(ev, ir.Call):
                continue
            held = _held_at(fn, i)
            if not held:
                continue
            locks = ", ".join(sorted({m for m, _l in held}))
            if ev.callee in BLOCKING_CALLS:
                if allow.allows(fn.file, ev.line, "blocking-under-lock"):
                    continue
                findings.append(ir.Finding(
                    rule="blocking-under-lock", file=fn.file, line=ev.line,
                    message=f"{fn.name} calls blocking "
                            f"{ev.callee}() while holding {locks}"))
                continue
            # one level into project callees (lambdas excluded: they run
            # on other threads)
            for callee in by_name.get(ev.callee, ()):
                if "<lambda" in callee.name or callee.name == fn.name:
                    continue
                for bc in direct_blocking(callee):
                    if allow.allows(fn.file, ev.line,
                                    "blocking-under-lock"):
                        break
                    findings.append(ir.Finding(
                        rule="blocking-under-lock", file=fn.file,
                        line=ev.line,
                        message=f"{fn.name} holds {locks} across call to "
                                f"{callee.name}, which calls blocking "
                                f"{bc.callee}() "
                                f"({os.path.basename(callee.file)}:"
                                f"{bc.line})"))
                    break  # one finding per call site per callee
    return findings


# ---------------------------------------------------------------------------
# rule: memory-order

HOT_DIRS = ("src/kronlab/parallel", "src/kronlab/obs", "src/kronlab/grb",
            "src/kronlab/graph", "src/kronlab/dist")


def rule_memory_order(functions: List[ir.Function], root: str,
                      allow: AllowIndex,
                      audit_path: str) -> List[ir.Finding]:
    entries, findings = parse_audit(audit_path)
    # group sites by (relfile, var, op, order)
    sites: Dict[Tuple[str, str, str, str], List[Tuple[str, int]]] = \
        defaultdict(list)
    for fn in functions:
        rel = _rel(fn.file, root)
        for ev in fn.events:
            if isinstance(ev, ir.AtomicOp):
                sites[(rel, ev.var, ev.op, ev.order)].append(
                    (fn.file, ev.line))
    matched: Set[Tuple[str, str, str, str]] = set()
    for key, locs in sorted(sites.items()):
        rel, var, op, order = key
        entry = entries.get(key)
        if entry is not None:
            matched.add(key)
            if entry.count != len(locs):
                findings.append(ir.Finding(
                    rule="memory-order", file=locs[0][0], line=locs[0][1],
                    message=f"audit entry for {var}.{op}({order}) in {rel} "
                            f"expects {entry.count} site(s) but the tree "
                            f"has {len(locs)} — re-audit "
                            f"(audit line {entry.line})"))
            continue
        unallowed = [(f, ln) for f, ln in locs
                     if not allow.allows(f, ln, "memory-order")]
        if not unallowed:
            continue
        f0, l0 = unallowed[0]
        what = (f"defaulted seq_cst {op}" if order == "seq_cst(default)"
                else f"{op} with memory_order_{order}")
        hot = " on a hot path" if _in_dir(rel, HOT_DIRS) else ""
        findings.append(ir.Finding(
            rule="memory-order", file=f0, line=l0,
            message=f"unaudited atomic: {var}.{what}{hot} "
                    f"({len(unallowed)} site(s) in {rel}) — add a justified "
                    f"entry to {os.path.basename(audit_path)}"))
    for key, entry in sorted(entries.items()):
        if key not in matched:
            findings.append(ir.Finding(
                rule="memory-order", file=audit_path, line=entry.line,
                message=f"stale audit entry: no {entry.var}.{entry.op}"
                        f"({entry.order}) sites remain in {entry.file}"))
    return findings


def emit_audit_skeleton(functions: List[ir.Function], root: str) -> str:
    sites: Dict[Tuple[str, str, str, str], int] = defaultdict(int)
    for fn in functions:
        rel = _rel(fn.file, root)
        for ev in fn.events:
            if isinstance(ev, ir.AtomicOp):
                sites[(rel, ev.var, ev.op, ev.order)] += 1
    lines = ["# memory_order.audit — one line per (file, var, op, order):",
             "#   file | var | op | order | count | justification",
             "# Every atomic site in src/ must be covered and justified;",
             "# kronlab_analyze --rules memory-order enforces both ways.",
             ""]
    for (rel, var, op, order), n in sorted(sites.items()):
        lines.append(f"{rel} | {var} | {op} | {order} | {n} | ")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# rule: unchecked-read

NODISCARD_APIS = {
    "fnv1a64", "fnv1a64_words", "read_binary", "read_binary_file",
    "read_snapshot", "read_snapshot_file", "read_segment", "check_segment",
    "fold_segment_payload", "read_manifest", "write_segment", "scan_store",
    "recv", "recv_deadline", "recv_any",
    "allreduce_sum", "allgather", "alltoall", "decode_request",
    "decode_response", "peek_request_id", "verify_checksum",
}

_STMT_START = {";", "{", "}"}


def rule_unchecked_read(files: List[str], root: str,
                        allow: AllowIndex,
                        scope_all: bool = False) -> List[ir.Finding]:
    findings: List[ir.Finding] = []
    for path in files:
        rel = _rel(path, root)
        if not scope_all and not _in_dir(rel, ("src", "tools", "bench")):
            continue
        try:
            with open(path, "r", encoding="utf-8", errors="replace") as f:
                toks = tokenize(f.read())
        except OSError:
            continue
        for i, t in enumerate(toks):
            if t.kind != IDENT or t.spelling not in NODISCARD_APIS:
                continue
            if i + 1 >= len(toks) or toks[i + 1].spelling != "(":
                continue
            # walk back over a receiver chain (`obj.` / `ns::`); two
            # adjacent identifiers mean a declaration, not a call
            j = i - 1
            while j >= 1 and toks[j].spelling in (".", "->", "::") \
                    and toks[j - 1].kind == IDENT:
                j -= 2
            if j < 0:
                continue
            prev = toks[j]
            if prev.kind == IDENT:
                continue  # declaration / return-type / `return f(...)`
            if prev.spelling == "{" and j >= 1 and (
                    (toks[j - 1].kind == IDENT
                     and toks[j - 1].spelling not in ("else", "do", "try"))
                    or toks[j - 1].spelling in (">", "=", ",", "(", "{")):
                continue  # braced initializer, not a block: value consumed
            discard_cast = (
                prev.spelling == ")" and j >= 2
                and toks[j - 1].spelling == "void"
                and toks[j - 2].spelling == "(")
            plain_discard = prev.spelling in _STMT_START
            if discard_cast and j >= 3:
                plain_prev = toks[j - 3]
                if plain_prev.spelling not in _STMT_START:
                    discard_cast = False  # (void) mid-expression: not ours
            if not (discard_cast or plain_discard):
                continue
            if allow.allows(path, t.line, "unchecked-read"):
                continue
            how = ("discards the result via (void) cast" if discard_cast
                   else "ignores the result")
            findings.append(ir.Finding(
                rule="unchecked-read", file=path, line=t.line,
                message=f"call to {t.spelling}() {how}; the return value "
                        "is a checksum/parse/verify result and must be "
                        "consumed"))
    return findings


# ---------------------------------------------------------------------------
# rule: registry

_ENV_RE = re.compile(r'^"(KRONLAB_[A-Z0-9_]*)"$')
_MAGIC_RE = re.compile(r'^"(KRNL[A-Z0-9]{4})"$')
_BATCH_HEX = "0x42415443"


def _registry_names(registry_path: str) -> Tuple[Set[str], Set[str]]:
    """(env names, magic names) declared in registry.hpp."""
    env_names: Set[str] = set()
    magic_names: Set[str] = set()
    try:
        with open(registry_path, "r", encoding="utf-8") as f:
            toks = tokenize(f.read())
    except OSError:
        return env_names, magic_names
    run: List[str] = []
    for t in toks:
        if t.kind == STRING:
            m = _ENV_RE.match(t.spelling)
            if m:
                env_names.add(m.group(1))
        if t.kind == CHAR and len(t.spelling) == 3:
            run.append(t.spelling[1])
            if len(run) == 8:
                word = "".join(run)
                if word.startswith("KRNL"):
                    magic_names.add(word)
                run = []
        elif t.kind != CHAR and t.spelling != ",":
            run = []
    return env_names, magic_names


def rule_registry(files: List[str], root: str,
                  allow: AllowIndex,
                  scope_all: bool = False) -> List[ir.Finding]:
    findings: List[ir.Finding] = []
    registry = os.path.join(root, "src", "kronlab", "common",
                            "registry.hpp")
    if not os.path.exists(registry):
        # fixture trees keep their registry at the tree root
        registry = os.path.join(root, "registry.hpp")
    env_names, magic_names = _registry_names(registry)
    if not env_names or not magic_names:
        findings.append(ir.Finding(
            rule="registry", file=registry, line=1,
            message="registry.hpp missing or defines no KRONLAB_*/KRNL* "
                    "names — the one-definition registry is the rule's "
                    "anchor"))
        return findings
    # 1. stray definitions / literals outside the registry
    for path in files:
        rel = _rel(path, root)
        if not scope_all and not _in_dir(rel, ("src", "tools", "bench")):
            continue
        if os.path.abspath(path) == os.path.abspath(registry):
            continue
        try:
            with open(path, "r", encoding="utf-8", errors="replace") as f:
                toks = tokenize(f.read())
        except OSError:
            continue
        run_start = None
        run: List[str] = []
        for i, t in enumerate(toks):
            if t.kind == STRING:
                m = _ENV_RE.match(t.spelling)
                if m and not allow.allows(path, t.line, "registry"):
                    findings.append(ir.Finding(
                        rule="registry", file=path, line=t.line,
                        message=f'env var literal "{m.group(1)}" outside '
                                "common/registry.hpp — use kronlab::env::"))
                m = _MAGIC_RE.match(t.spelling)
                if m and not allow.allows(path, t.line, "registry"):
                    findings.append(ir.Finding(
                        rule="registry", file=path, line=t.line,
                        message=f'wire magic literal "{m.group(1)}" '
                                "outside common/registry.hpp — use "
                                "kronlab::magic::"))
            if t.kind == CHAR and len(t.spelling) == 3:
                if not run:
                    run_start = t.line
                run.append(t.spelling[1])
                if len(run) >= 4 and "".join(run[:4]) == "KRNL":
                    if not allow.allows(path, run_start or t.line,
                                        "registry"):
                        findings.append(ir.Finding(
                            rule="registry", file=path,
                            line=run_start or t.line,
                            message="char-array wire magic spelled outside "
                                    "common/registry.hpp — alias "
                                    "kronlab::magic:: instead"))
                    run = []
            elif t.kind != CHAR and t.spelling != ",":
                run = []
            if t.spelling.lower().startswith(_BATCH_HEX) \
                    and not allow.allows(path, t.line, "registry"):
                findings.append(ir.Finding(
                    rule="registry", file=path, line=t.line,
                    message="BATC batch-magic hex constant outside "
                            "common/registry.hpp — use "
                            "kronlab::magic::kBatchWord"))
    # 2. every registered name documented in README.md / DESIGN.md
    docs = ""
    for doc in ("README.md", "DESIGN.md"):
        try:
            with open(os.path.join(root, doc), "r",
                      encoding="utf-8") as f:
                docs += f.read()
        except OSError:
            pass
    for name in sorted(env_names | magic_names | {"BATC"}):
        if name not in docs:
            findings.append(ir.Finding(
                rule="registry", file=registry, line=1,
                message=f"{name} is registered but documented in neither "
                        "README.md nor DESIGN.md"))
    return findings


# ---------------------------------------------------------------------------
# driver


def run_rules(rules: Iterable[str], functions: List[ir.Function],
              files: List[str], root: str, allow: AllowIndex,
              audit_path: str,
              scope_all: bool = False) -> List[ir.Finding]:
    """`scope_all` lifts the src/-only scoping — used when analyzing a
    fixture tree whose files live at the tree root."""
    src_functions = [fn for fn in functions
                     if scope_all or _in_dir(_rel(fn.file, root), ("src",))]
    findings: List[ir.Finding] = []
    for rule in rules:
        if rule == "lock-order":
            findings.extend(rule_lock_order(src_functions, root, allow))
        elif rule == "blocking-under-lock":
            findings.extend(
                rule_blocking_under_lock(src_functions, root, allow))
        elif rule == "memory-order":
            findings.extend(
                rule_memory_order(src_functions, root, allow, audit_path))
        elif rule == "unchecked-read":
            findings.extend(
                rule_unchecked_read(files, root, allow, scope_all))
        elif rule == "registry":
            findings.extend(rule_registry(files, root, allow, scope_all))
    findings.extend(allow.bare_findings(files))
    findings.sort(key=lambda f: (f.file, f.line, f.rule))
    return findings
