"""Memory accesses as seen by the data-race detectors.

The paper distinguishes four access types (§2.1): an operation is either
local to the process (``Local_*``) or part of a remote memory access
(``RMA_*``), and is either a read (``*_Read``) or a write (``*_Write``).
A single MPI-RMA call contributes *two* accesses, one on each side:

====================  =======================  =======================
call                  origin side              target side
====================  =======================  =======================
``MPI_Put``           ``RMA_Read`` (source)    ``RMA_Write`` (window)
``MPI_Get``           ``RMA_Write`` (dest)     ``RMA_Read`` (window)
``Store``             ``Local_Write``          --
``Load``              ``Local_Read``           --
====================  =======================  =======================

Every access carries the exact byte interval touched, the issuing rank
(needed for the program-order refinement of §5.2) and debug information
(file/line), which RMA-Analyzer keeps so that race reports point at
source lines (Fig. 9b).
"""

from __future__ import annotations

import enum
from typing import Optional, Tuple, Union

from .._fields import Fields
from .interval import Interval

__all__ = ["AccessType", "DebugInfo", "MemoryAccess", "MIXED_ACCUM_OP",
           "access_to_dict"]

#: accumulate marker of a fragment built from accesses that were not
#: same-op atomics.  It keeps ``is_atomic`` true — the same-*origin*
#: accumulate-ordering exemption must survive combination — but can
#: never equal a real reduction op, so the same-*op* exemption cannot
#: fire against it: the fragment stands for several accesses of which
#: at least one would conflict with any later cross-origin accumulate.
MIXED_ACCUM_OP = "<mixed>"


class AccessType(enum.IntEnum):
    """The four access kinds of the paper, §2.1."""

    LOCAL_READ = 0
    LOCAL_WRITE = 1
    RMA_READ = 2
    RMA_WRITE = 3

    @property
    def is_rma(self) -> bool:
        return self in (AccessType.RMA_READ, AccessType.RMA_WRITE)

    @property
    def is_local(self) -> bool:
        return not self.is_rma

    @property
    def is_write(self) -> bool:
        return self in (AccessType.LOCAL_WRITE, AccessType.RMA_WRITE)

    @property
    def is_read(self) -> bool:
        return not self.is_write

    def __str__(self) -> str:
        return {
            AccessType.LOCAL_READ: "LOCAL_READ",
            AccessType.LOCAL_WRITE: "LOCAL_WRITE",
            AccessType.RMA_READ: "RMA_READ",
            AccessType.RMA_WRITE: "RMA_WRITE",
        }[self]

    @property
    def short(self) -> str:
        """Compact paper-style name (``Local_R`` etc., Table 1 headers)."""
        return {
            AccessType.LOCAL_READ: "Local_R",
            AccessType.LOCAL_WRITE: "Local_W",
            AccessType.RMA_READ: "RMA_R",
            AccessType.RMA_WRITE: "RMA_W",
        }[self]


_set = object.__setattr__


class DebugInfo(Fields, frozen=True):
    """Source location of the instruction that produced an access.

    Two fragments can only be merged when they carry *equal* debug info
    (§4.2): otherwise a later race report could blame the wrong line.
    """

    __slots__ = _fields = ("filename", "line")

    def __init__(self, filename: str, line: int) -> None:
        _set(self, "filename", filename)
        _set(self, "line", line)

    def __str__(self) -> str:
        return f"{self.filename}:{self.line}"


_UNKNOWN_DEBUG = DebugInfo("<unknown>", 0)


class MemoryAccess(Fields, frozen=True):
    """One recorded memory access: interval + type + provenance.

    ``origin`` is the rank that *issued* the operation (for an incoming
    ``MPI_Put`` recorded at the target, ``origin`` is the remote rank);
    a stored fragment of several ranks' accumulates carries their
    :data:`~repro.intervals.combine.OriginSet` instead.
    ``seq`` is a monotonically increasing per-detector sequence number
    used only for deterministic tie-breaking and debugging.

    ``flush_gen`` is the issuer's ``MPI_Win_flush`` generation at the time
    the access was recorded (§6 discussion): a detector with *precise*
    flush support exempts pairs whose stored access was completed by a
    later flush of the same issuer.  Detectors that ignore flush leave it
    at 0.

    ``accum_op`` is set for the target-side write of an
    ``MPI_Accumulate``: the paper's §2.1 atomicity property guarantees
    element-wise atomicity of accumulates *with the same operation* on
    the same window, so two such writes do not race with each other
    (they still race with everything else).

    ``excl_epoch`` identifies the exclusive ``MPI_Win_lock`` epoch the
    access was issued under (None outside exclusive locks).  Exclusive
    lock epochs on the same (window, target) are mutually exclusive, so
    accesses from *different* exclusive epochs cannot race.
    """

    __slots__ = _fields = ("interval", "type", "debug", "origin", "seq",
                           "flush_gen", "accum_op", "excl_epoch")

    def __init__(
        self,
        interval: Interval,
        type: AccessType,
        debug: DebugInfo = _UNKNOWN_DEBUG,
        origin: Union[int, Tuple[Tuple[int, int], ...]] = 0,
        seq: int = 0,
        flush_gen: int = 0,
        accum_op: Optional[str] = None,
        excl_epoch: Optional[int] = None,
    ) -> None:
        _set(self, "interval", interval)
        _set(self, "type", type)
        _set(self, "debug", debug)
        _set(self, "origin", origin)
        _set(self, "seq", seq)
        _set(self, "flush_gen", flush_gen)
        _set(self, "accum_op", accum_op)
        _set(self, "excl_epoch", excl_epoch)

    @property
    def is_atomic(self) -> bool:
        return self.accum_op is not None

    # -- convenience proxies ----------------------------------------------

    @property
    def lo(self) -> int:
        return self.interval.lo

    @property
    def hi(self) -> int:
        return self.interval.hi

    @property
    def is_rma(self) -> bool:
        return self.type.is_rma

    @property
    def is_write(self) -> bool:
        return self.type.is_write

    def overlaps(self, other: "MemoryAccess") -> bool:
        return self.interval.overlaps(other.interval)

    def with_interval(self, interval: Interval) -> "MemoryAccess":
        """The same access restricted/extended to another interval."""
        return MemoryAccess(interval, self.type, self.debug, self.origin,
                            self.seq, self.flush_gen, self.accum_op,
                            self.excl_epoch)

    def same_site(self, other: "MemoryAccess") -> bool:
        """Same access type *and* same debug info — the §4.2 merge criterion.

        The flush generation must match too: merging a completed range
        into an uncompleted one would corrupt the §6 flush exemption.
        Likewise the accumulate operation: only same-op atomic ranges may
        coalesce, or the atomicity exemption would leak.
        """
        return (
            self.type == other.type
            and self.debug == other.debug
            and self.origin == other.origin
            and self.flush_gen == other.flush_gen
            and self.accum_op == other.accum_op
        )

    def __str__(self) -> str:
        return f"({self.interval}, {self.type})"


def make_access(
    lo: int,
    hi: int,
    type: AccessType,
    *,
    filename: str = "<unknown>",
    line: int = 0,
    origin: int = 0,
    seq: int = 0,
) -> MemoryAccess:
    """Terse constructor used heavily by tests."""
    return MemoryAccess(Interval(lo, hi), type, DebugInfo(filename, line), origin, seq)


def access_to_dict(acc: MemoryAccess) -> dict:
    """The JSON form of an access (verdicts, forensics)."""
    return {
        "lo": acc.interval.lo,
        "hi": acc.interval.hi,
        "type": acc.type.name,
        "file": acc.debug.filename,
        "line": acc.debug.line,
        "origin": acc.origin,
        "flush_gen": acc.flush_gen,
        "accum_op": acc.accum_op,
        "excl_epoch": acc.excl_epoch,
    }
