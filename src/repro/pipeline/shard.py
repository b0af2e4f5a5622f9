"""Event routing: which shard(s) must see which trace event.

The pipeline shards the analysis **by memory rank** — exactly the axis
along which every modelled detector keys its canonical state:

* the BST detectors keep one interval tree per ``(rank, window)``
  (:class:`~repro.detectors.bst_common.BstDetector`),
* MUST-RMA's shadow memory cells live per ``(rank, granule)``,
* MC-CChecker buckets its recorded accesses per ``(memory_rank,
  granule)``.

A rank's whole state therefore evolves from a *projection* of the event
stream, and the projections are:

* a local access of rank ``r`` concerns only ``r``'s memory → shard ``r``;
* an RMA op touches the origin's buffer **and** the target's window →
  shards ``origin`` and ``target`` (each shard's detector re-derives
  both sides, but only the side stored under the shard's own rank is
  canonical — the other is a private replica whose verdicts the
  aggregator drops, see :func:`own_reports`);
* synchronization (fence/barrier/flush/epoch/window events) orders
  *everything* — it is replicated to every shard, which is also what
  keeps clock-based detectors sound: all happens-before edges between
  any two retained events survive the projection.

Within one shard, events arrive in global trace order, so a shard's
detector makes byte-for-byte the decisions the serial replay makes for
that rank's stores.

:func:`dispatch_event` is the single trace-event → detector-hook mapping
shared by serial replay (:func:`repro.mpi.trace_io.replay_trace`) and
the pipeline workers.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Tuple

from ..mpi.trace import LocalEvent, RmaEvent, SyncEvent, SyncKind, TraceEvent

if TYPE_CHECKING:
    from ..mpi.interposition import DetectorProtocol

__all__ = [
    "ReplayWindow",
    "dispatch_batch",
    "dispatch_event",
    "own_reports",
    "shards_of",
]


class ReplayWindow:
    """Just enough of a Window for detector ``on_win_create`` hooks."""

    def __init__(self, wid: int, nranks: int) -> None:
        self.wid = wid
        self.name = f"replay-{wid}"
        self.regions = [None] * nranks


def shards_of(event: TraceEvent, nranks: int) -> Tuple[int, ...]:
    """The shard ids (memory ranks) that must process ``event``."""
    if isinstance(event, LocalEvent):
        return (event.rank,)
    if isinstance(event, RmaEvent):
        if event.rank == event.target:
            return (event.rank,)
        return (event.rank, event.target)
    # sync events order everything: replicate
    return tuple(range(nranks))


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
        kind = event.kind
        if kind is SyncKind.WIN_CREATE:
            detector.on_win_create(ReplayWindow(event.wid, nranks))
        elif kind is SyncKind.WIN_FREE:
            detector.on_win_free(event.wid)
        elif kind is SyncKind.LOCK_ALL:
            detector.on_epoch_start(event.rank, event.wid)
        elif kind is SyncKind.UNLOCK_ALL:
            detector.on_epoch_end(event.rank, event.wid)
        elif kind in (SyncKind.FLUSH, SyncKind.FLUSH_ALL):
            detector.on_flush(event.rank, event.wid)
        elif kind is SyncKind.BARRIER:
            detector.on_barrier()
        elif kind is SyncKind.FENCE:
            detector.on_fence(event.wid, nranks)


def dispatch_batch(
    detector: DetectorProtocol,
    events,
    nranks: int,
    *,
    timeline=None,
    lane=None,
) -> int:
    """Feed a whole chunk of events to one detector; returns the count.

    Detectors exposing ``ingest_batch`` (the flat core) take the chunk
    wholesale — per-event dispatch overhead (isinstance ladder, hook
    indirection, timeline lookup) is paid once per chunk.  Everything
    else gets the per-event loop with identical semantics.

    ``timeline``/``lane`` preserve the callers' forensics feed ordering:
    each event is recorded *before* it is analyzed (``lane=None`` uses
    fanout recording as serial replay does; an int ``lane`` records into
    that shard's ring as the worker loop does).
    """
    ingest = getattr(detector, "ingest_batch", None)
    if ingest is not None:
        return ingest(events, nranks, timeline=timeline, lane=lane)
    n = 0
    if timeline is None:
        for event in events:
            dispatch_event(detector, event, nranks)
            n += 1
    elif lane is None:
        for event in events:
            timeline.record_event_fanout(event, nranks)
            dispatch_event(detector, event, nranks)
            n += 1
    else:
        for event in events:
            timeline.record_event(lane, event)
            dispatch_event(detector, event, nranks)
            n += 1
    return n


def own_reports(detector: DetectorProtocol, shard: int) -> List:
    """The shard's canonical verdicts: races stored under its own rank.

    A shard's detector also maintains replica stores for the *other*
    side of RMA ops involving this rank; races those replicas find are
    found canonically (from the full projection) by the owning shard,
    so they are dropped here to keep the merged verdict set exact.
    """
    return [r for r in getattr(detector, "reports", []) if r.rank == shard]
