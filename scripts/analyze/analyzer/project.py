"""Project plumbing: file discovery, allow markers, the memory-order
audit file, and finding suppression.

Allow markers
-------------
A finding is suppressed by a justified marker on the finding's line or
in the contiguous comment block directly above::

    // kronlab-analyze: allow(blocking-under-lock) single writer per
    //   connection; write_mu exists to serialize whole frames

The justification text after ``allow(rule)`` is mandatory — a bare
marker is itself reported as a finding (rule ``bare-allow``).  This is
the same escape-hatch shape as kronlab_lint, deliberately: grep for
``kronlab-analyze:`` audits every suppression in the tree.

Audit file (memory-order rule)
------------------------------
``memory_order.audit`` lines look like::

    src/kronlab/obs/log.cpp | g_level | load | relaxed | 3 | level gate; ...

keyed by (file, var, op, order) with an expected site count and a
mandatory justification.  The rule reports sites with no audit entry,
entries whose count no longer matches (stale), and entries for sites
that no longer exist.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from . import RULES
from .ir import Finding

ALLOW_RE = re.compile(
    r"kronlab-analyze:\s*allow\(([a-z-]+(?:\s*,\s*[a-z-]+)*)\)\s*(\S?)")

SRC_DIRS = ("src", "tools", "bench")
SRC_EXT = (".cpp", ".cc", ".cxx", ".hpp", ".h")


def repo_root(start: Optional[str] = None) -> str:
    d = os.path.abspath(start or os.path.dirname(__file__))
    while d != "/":
        if os.path.isdir(os.path.join(d, ".git")):
            return d
        d = os.path.dirname(d)
    return os.getcwd()


def files_from_compdb(compdb_path: str) -> List[str]:
    with open(compdb_path, "r", encoding="utf-8") as f:
        entries = json.load(f)
    seen: Set[str] = set()
    out: List[str] = []
    for e in entries:
        p = os.path.abspath(os.path.join(e["directory"], e["file"]))
        if p not in seen and os.path.exists(p):
            seen.add(p)
            out.append(p)
    return out


def files_from_tree(root: str,
                    dirs: Iterable[str] = SRC_DIRS) -> List[str]:
    out: List[str] = []
    for d in dirs:
        top = os.path.join(root, d)
        for base, _dirs, names in os.walk(top):
            for n in sorted(names):
                if n.endswith(SRC_EXT):
                    out.append(os.path.join(base, n))
    return sorted(out)


def headers_for(sources: List[str], root: str) -> List[str]:
    """The project headers belonging to the same tree as `sources` —
    the analyzer reads them directly (no preprocessor)."""
    src_set = set(sources)
    out = list(sources)
    for p in files_from_tree(root):
        if p.endswith((".hpp", ".h")) and p not in src_set:
            out.append(p)
    return out


@dataclass
class AllowIndex:
    """Per-file allow markers, line -> set of rules; plus bare markers."""

    by_file: Dict[str, Dict[int, Set[str]]] = field(default_factory=dict)
    comment_lines: Dict[str, Set[int]] = field(default_factory=dict)
    bare: List[Tuple[str, int]] = field(default_factory=list)
    used: Set[Tuple[str, int, str]] = field(default_factory=set)

    def scan(self, path: str) -> None:
        if path in self.by_file:
            return
        table: Dict[int, Set[str]] = {}
        comments: Set[int] = set()
        try:
            with open(path, "r", encoding="utf-8", errors="replace") as f:
                for lineno, line in enumerate(f, start=1):
                    if line.lstrip().startswith("//"):
                        comments.add(lineno)
                    m = ALLOW_RE.search(line)
                    if not m:
                        continue
                    rules = {r.strip() for r in m.group(1).split(",")}
                    if not m.group(2):
                        # no justification text after the ')'
                        self.bare.append((path, lineno))
                    table[lineno] = rules
        except OSError:
            pass
        self.by_file[path] = table
        self.comment_lines[path] = comments

    def allows(self, path: str, line: int, rule: str) -> bool:
        """Marker on the line itself, or anywhere in the contiguous
        comment block directly above it (multi-line justifications)."""
        self.scan(path)
        table = self.by_file.get(path, {})
        comments = self.comment_lines.get(path, set())
        if rule in table.get(line, ()):
            self.used.add((path, line, rule))
            return True
        ln = line - 1
        while ln > 0 and ln in comments:
            if rule in table.get(ln, ()):
                self.used.add((path, ln, rule))
                return True
            ln -= 1
        return False

    def bare_findings(self, paths: Iterable[str]) -> List[Finding]:
        for p in paths:
            self.scan(p)
        return [Finding(rule="bare-allow", file=p, line=ln,
                        message="allow() marker carries no justification "
                                "text; say why the suppression is sound")
                for p, ln in self.bare]


@dataclass
class AuditEntry:
    file: str
    var: str
    op: str
    order: str
    count: int
    justification: str
    line: int  # line in the audit file, for reporting


def parse_audit(path: str) -> Tuple[Dict[Tuple[str, str, str, str], AuditEntry],
                                    List[Finding]]:
    entries: Dict[Tuple[str, str, str, str], AuditEntry] = {}
    findings: List[Finding] = []
    if not os.path.exists(path):
        return entries, findings
    with open(path, "r", encoding="utf-8") as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = [p.strip() for p in line.split("|")]
            if len(parts) != 6:
                findings.append(Finding(
                    rule="memory-order", file=path, line=lineno,
                    message="malformed audit line (want "
                            "file|var|op|order|count|justification)"))
                continue
            fpath, var, op, order, count_s, just = parts
            try:
                count = int(count_s)
            except ValueError:
                findings.append(Finding(
                    rule="memory-order", file=path, line=lineno,
                    message=f"bad count {count_s!r} in audit line"))
                continue
            if not just:
                findings.append(Finding(
                    rule="memory-order", file=path, line=lineno,
                    message=f"audit entry for {fpath} {var}.{op} has no "
                            "justification"))
            key = (fpath, var, op, order)
            if key in entries:
                findings.append(Finding(
                    rule="memory-order", file=path, line=lineno,
                    message=f"duplicate audit entry for {key}"))
                continue
            entries[key] = AuditEntry(fpath, var, op, order, count, just,
                                      lineno)
    return entries, findings


def validate_rules(names: Iterable[str]) -> List[str]:
    bad = [n for n in names if n not in RULES]
    if bad:
        raise ValueError(f"unknown rule(s): {', '.join(bad)}; "
                         f"known: {', '.join(RULES)}")
    return list(names)
