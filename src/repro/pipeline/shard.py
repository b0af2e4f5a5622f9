"""Event dispatch: one recorded trace event -> the detector hook it drives.

:func:`dispatch_event` is the single trace-event → detector-hook mapping
shared by serial replay (:func:`repro.mpi.trace_io.replay_trace`) and
the decoded path of :func:`repro.pipeline.analyze_trace`;
:func:`dispatch_sync` is its synchronization part, which the flat
core's wire ingestion calls with a sync record's fields, and
:func:`dispatch_batch` is the one loop that feeds decoded events to any
detector, the flat core included.

Every modelled detector keys its canonical state by memory rank (the
BST detectors per ``(rank, window)``, MUST-RMA's shadow cells per
``(rank, granule)``, MC-CChecker per ``(memory_rank, granule)``), and
the event timeline keeps one lane per rank by the same projection
(:meth:`~repro.obs.timeline.Timeline.record_event_fanout`): a local
access belongs to its rank, an RMA op to its origin and target, and a
synchronization event to every rank.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..mpi.trace import LocalEvent, RmaEvent, SyncEvent, SyncKind, TraceEvent

if TYPE_CHECKING:
    from ..mpi.interposition import DetectorProtocol

__all__ = [
    "ReplayWindow",
    "dispatch_batch",
    "dispatch_event",
    "dispatch_sync",
]


class ReplayWindow:
    """Just enough of a Window for detector ``on_win_create`` hooks."""

    def __init__(self, wid: int, nranks: int) -> None:
        self.wid = wid
        self.name = f"replay-{wid}"
        self.regions = [None] * nranks


def dispatch_event(
    detector: DetectorProtocol, event: TraceEvent, nranks: int
) -> None:
    """Feed one recorded event to a detector, as the live runtime would."""
    if isinstance(event, LocalEvent):
        detector.on_local(event.rank, event.access, event.region)
    elif isinstance(event, RmaEvent):
        detector.on_rma(
            event.op, event.rank, event.target, event.wid,
            event.origin_access, event.target_access,
            event.origin_region, event.target_region,
        )
    elif isinstance(event, SyncEvent):
        dispatch_sync(detector, event.kind, event.rank, event.wid, nranks)


def dispatch_sync(detector: DetectorProtocol, kind: SyncKind, rank: int,
                  wid: int, nranks: int) -> None:
    """Feed one synchronization event, given by its fields (the flat
    core's wire ingestion builds no event object for it)."""
    if kind is SyncKind.WIN_CREATE:
        detector.on_win_create(ReplayWindow(wid, nranks))
    elif kind is SyncKind.WIN_FREE:
        detector.on_win_free(wid)
    elif kind is SyncKind.LOCK_ALL:
        detector.on_epoch_start(rank, wid)
    elif kind is SyncKind.UNLOCK_ALL:
        detector.on_epoch_end(rank, wid)
    elif kind in (SyncKind.FLUSH, SyncKind.FLUSH_ALL):
        detector.on_flush(rank, wid)
    elif kind is SyncKind.BARRIER:
        detector.on_barrier()
    elif kind is SyncKind.FENCE:
        detector.on_fence(wid, nranks)


def dispatch_batch(
    detector: DetectorProtocol,
    events,
    nranks: int,
    *,
    timeline=None,
) -> int:
    """Feed a chunk of decoded events to one detector, one event at a
    time through :func:`dispatch_event`; returns the count.

    ``timeline`` gets each event *before* it is analyzed, fanned out to
    the lanes of the ranks it concerns, as serial replay records it.
    """
    n = 0
    for event in events:
        if timeline is not None:
            timeline.record_event_fanout(event, nranks)
        dispatch_event(detector, event, nranks)
        n += 1
    return n
