"""The instrumentation filter policies.

Three policies cover the tools of the paper:

* ``ALIAS`` — RMA-Analyzer and our contribution: a local access is
  instrumented only when the accessed region may alias RMA memory
  (window memory or a buffer that is/will be passed to Put/Get).  This
  is the LLVM-alias-analysis filtering of §5.1.
* ``TSAN`` — the MUST-RMA model: *everything* is instrumented except
  stack arrays, which ThreadSanitizer skips (the cause of its false
  negatives, §5.2).
* ``ALL`` — instrument every local access (used by ablations to measure
  what the alias filter saves).
"""

from __future__ import annotations

import enum

from .._fields import Fields
from ..mpi.memory import RegionInfo

__all__ = ["FilterPolicy", "AliasFilter"]


class FilterPolicy(enum.Enum):
    ALIAS = "alias"
    TSAN = "tsan"
    ALL = "all"


class AliasFilter(Fields):
    """Decides, per local access, whether a detector observes it.

    Tracks how many accesses it saw and kept so that experiments can
    report instrumentation ratios (MUST-RMA's over-instrumentation is
    the paper's main explanation for Fig. 10's slowdown).
    """

    _fields = ("policy", "seen", "kept")

    def __init__(self, policy: FilterPolicy = FilterPolicy.ALIAS,
                 seen: int = 0, kept: int = 0) -> None:
        self.policy = policy
        self.seen = seen
        self.kept = kept

    def instrument(self, region: RegionInfo) -> bool:
        self.seen += 1
        if self.policy is FilterPolicy.ALL:
            keep = True
        elif self.policy is FilterPolicy.TSAN:
            keep = not region.is_stack
        else:  # ALIAS
            keep = region.is_window or region.may_alias_rma
        if keep:
            self.kept += 1
        return keep

    @property
    def filtered(self) -> int:
        return self.seen - self.kept

    def reset(self) -> None:
        self.seen = 0
        self.kept = 0
