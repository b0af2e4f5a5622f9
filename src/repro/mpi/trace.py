"""Execution trace records.

The on-the-fly detectors consume events directly from the interposition
layer; the *post-mortem* detector (MC-CChecker model) and several tests
need the whole execution recorded.  :class:`TraceLog` stores a flat,
globally ordered event list; recording is optional (``World(trace=True)``)
because large app runs do not need it.
"""

from __future__ import annotations

import enum
from typing import Iterator, List

from .._fields import Fields
from ..intervals import MemoryAccess
from .memory import RegionInfo, RegionKind

__all__ = [
    "SyncKind",
    "TraceEvent",
    "LocalEvent",
    "RmaEvent",
    "SyncEvent",
    "TraceLog",
    "StreamingTraceLog",
]


class SyncKind(enum.Enum):
    WIN_CREATE = "win_create"
    WIN_FREE = "win_free"
    LOCK_ALL = "lock_all"
    UNLOCK_ALL = "unlock_all"
    FLUSH = "flush"
    FLUSH_ALL = "flush_all"
    FENCE = "fence"
    BARRIER = "barrier"


_set = object.__setattr__

#: plain window memory (MPI_Win_allocate), an RMA target's default
_WINDOW = RegionInfo(RegionKind.WINDOW, True)


class TraceEvent(Fields, frozen=True):
    """Base: every event has a global sequence number and an issuing rank."""

    _fields = ("seq", "rank")

    def __init__(self, seq: int, rank: int) -> None:
        _set(self, "seq", seq)
        _set(self, "rank", rank)


class LocalEvent(TraceEvent, frozen=True):
    """An instrumentable Load/Store."""

    _fields = ("seq", "rank", "access", "region")

    def __init__(self, seq: int, rank: int, access: MemoryAccess,
                 region: RegionInfo) -> None:
        _set(self, "seq", seq)
        _set(self, "rank", rank)
        _set(self, "access", access)
        _set(self, "region", region)


class RmaEvent(TraceEvent, frozen=True):
    """One MPI_Put / MPI_Get: both sides' accesses, already resolved."""

    _fields = ("seq", "rank", "op", "target", "wid", "origin_access",
               "target_access", "origin_region", "target_region", "nbytes")

    def __init__(self, seq: int, rank: int, op: str, target: int, wid: int,
                 origin_access: MemoryAccess, target_access: MemoryAccess,
                 origin_region: RegionInfo,
                 target_region: RegionInfo = _WINDOW,
                 nbytes: int = 0) -> None:
        _set(self, "seq", seq)
        _set(self, "rank", rank)
        _set(self, "op", op)  # "put" | "get"
        _set(self, "target", target)
        _set(self, "wid", wid)
        _set(self, "origin_access", origin_access)
        _set(self, "target_access", target_access)
        _set(self, "origin_region", origin_region)
        _set(self, "target_region", target_region)
        _set(self, "nbytes", nbytes)


class SyncEvent(TraceEvent, frozen=True):
    """A synchronization call (rank == -1 for whole-world barriers)."""

    _fields = ("seq", "rank", "kind", "wid")

    def __init__(self, seq: int, rank: int, kind: SyncKind,
                 wid: int = -1) -> None:
        _set(self, "seq", seq)
        _set(self, "rank", rank)
        _set(self, "kind", kind)
        _set(self, "wid", wid)


class TraceLog:
    """Append-only global event log."""

    def __init__(self) -> None:
        self.events: List[TraceEvent] = []
        self._seq = 0

    def next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def append(self, event: TraceEvent) -> None:
        self.events.append(event)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def of_rank(self, rank: int) -> List[TraceEvent]:
        return [e for e in self.events if e.rank == rank]

    def rma_events(self) -> List[RmaEvent]:
        return [e for e in self.events if isinstance(e, RmaEvent)]


class StreamingTraceLog(TraceLog):
    """A trace log that forwards events to a sink instead of keeping them.

    Recording a large run with ``World(trace=True)`` keeps every event in
    memory; passing ``World(trace=StreamingTraceLog(writer.write))``
    instead streams the events straight to a trace writer (see
    :mod:`repro.pipeline.format`) in constant memory.  ``events`` stays
    empty by design — post-hoc consumers should read the written file.
    """

    def __init__(self, sink) -> None:
        super().__init__()
        self._sink = sink
        self._count = 0

    def append(self, event: TraceEvent) -> None:
        self._sink(event)
        self._count += 1

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(())
