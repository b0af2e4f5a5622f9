"""A small symbolic IR for compile-time analysis of MPI-RMA programs.

The paper's conclusion (§7) plans to "enhance the static analysis
proposed by Saillard et al. [16] to detect more errors at compile time
... and to combine this static analysis to RMA-Analyzer in order to
reduce the overhead at runtime".  Saillard et al. (Correctness'22) walk
the LLVM control-flow graph and detect *local concurrency errors* —
races whose both accesses are issued by the same process — before the
program ever runs.

Our stand-in for the LLVM IR is a symbolic program: per rank, a list of
:class:`SOp` operations over named buffers with byte-offset intervals.
Buffers are symbols (the static analysis does not know addresses); two
accesses may conflict only when they name the same symbol on the same
process and their offset intervals overlap.  One-sided operations also
carry their target and window displacement interval, which the checker
uses for the cross-process *may-race* warnings it cannot prove.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..intervals import AccessType, Interval

__all__ = ["SOp", "StaticProgram", "op_accesses"]

_ONESIDED = ("put", "get", "accumulate")
_LOCAL = ("load", "store")
_SYNC = ("flush_all", "barrier", "lock_all", "unlock_all", "fence")


@dataclass(frozen=True)
class SOp:
    """One abstract operation of one rank."""

    kind: str  # put|get|accumulate|load|store|flush_all|barrier|...
    line: int = 0
    buf: str = ""  # local operand symbol (one-sided origin buffer too)
    buf_range: Optional[Interval] = None
    target: Optional[int] = None  # one-sided only
    win_range: Optional[Interval] = None  # displacement bytes at the target

    def __post_init__(self) -> None:
        if self.kind in _ONESIDED:
            if self.target is None or self.win_range is None or not self.buf:
                raise ValueError(f"{self.kind} needs buf, target and win_range")
        elif self.kind in _LOCAL:
            if not self.buf or self.buf_range is None:
                raise ValueError(f"{self.kind} needs buf and buf_range")
        elif self.kind not in _SYNC:
            raise ValueError(f"unknown op kind {self.kind!r}")

    @property
    def is_onesided(self) -> bool:
        return self.kind in _ONESIDED

    @property
    def is_local(self) -> bool:
        return self.kind in _LOCAL

    @property
    def is_sync(self) -> bool:
        return self.kind in _SYNC


@dataclass
class StaticProgram:
    """Per-rank op sequences (the straight-line CFG case of [16])."""

    ops: Dict[int, List[SOp]] = field(default_factory=dict)

    def rank(self, r: int) -> List[SOp]:
        return self.ops.setdefault(r, [])

    def add(self, rank: int, op: SOp) -> "StaticProgram":
        self.rank(rank).append(op)
        return self

    @property
    def nranks(self) -> int:
        return max(self.ops, default=-1) + 1


def op_accesses(
    op: SOp, rank: int
) -> List[Tuple[str, int, Interval, AccessType]]:
    """The symbolic accesses of one op: (symbol, owner rank, range, type).

    Window symbols are ``"win"`` owned by the target; the analysis treats
    every rank's window as one symbol per owner (exactly what the tool's
    per-window BST does at runtime).
    """
    out: List[Tuple[str, int, Interval, AccessType]] = []
    if op.kind == "put" or op.kind == "accumulate":
        assert op.target is not None and op.win_range is not None
        if op.buf_range is not None:
            out.append((op.buf, rank, op.buf_range, AccessType.RMA_READ))
        out.append(("win", op.target, op.win_range, AccessType.RMA_WRITE))
    elif op.kind == "get":
        assert op.target is not None and op.win_range is not None
        if op.buf_range is not None:
            out.append((op.buf, rank, op.buf_range, AccessType.RMA_WRITE))
        out.append(("win", op.target, op.win_range, AccessType.RMA_READ))
    elif op.kind == "load":
        assert op.buf_range is not None
        out.append((op.buf, rank, op.buf_range, AccessType.LOCAL_READ))
    elif op.kind == "store":
        assert op.buf_range is not None
        out.append((op.buf, rank, op.buf_range, AccessType.LOCAL_WRITE))
    return out
