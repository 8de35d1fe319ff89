"""The IR the token/scope frontend lowers to.

A translation unit becomes a list of `Function`s; each function is a
flat, source-ordered list of events.  Scope structure is encoded in the
events themselves (`Acquire.scope_end_line` for RAII guards), which is
all the rules need: they reason about *which locks are live at an
event*, not about arbitrary control flow.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional


@dataclass
class Acquire:
    """A lock acquisition.  RAII guards carry the guard scope's end."""

    mutex: str               # canonical id, e.g. "Server::queue_mu_"
    line: int
    kind: str                # "raii" | "manual"
    scope_end_line: Optional[int] = None  # raii only


@dataclass
class Release:
    mutex: str
    line: int


@dataclass
class CondWait:
    """cv.wait(mu): the mutex is released for the duration of the wait,
    so a wait is *not* a blocking call under that lock."""

    mutex: str
    line: int


@dataclass
class Call:
    """A function call.  `callee` is the unqualified name; `qualifier`
    is the best-effort receiver/class ('Comm', 'obj', '' for free)."""

    callee: str
    qualifier: str
    line: int


@dataclass
class AtomicOp:
    """One atomic operation site."""

    var: str                 # last identifier of the object expression
    op: str                  # load | store | fetch_add | ... | init
    order: str               # relaxed | acquire | release | acq_rel |
                             # seq_cst | consume | seq_cst(default)
    line: int


@dataclass
class Function:
    name: str                # qualified best-effort, e.g. "Server::adopt"
    file: str
    line: int
    events: List[object] = field(default_factory=list)


@dataclass
class Finding:
    rule: str
    file: str
    line: int
    message: str

    def render(self) -> str:
        return f"{self.file}:{self.line}: [{self.rule}] {self.message}"
