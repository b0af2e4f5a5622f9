"""Bounded per-rank event timelines — the forensics half of ``repro.obs``.

A :class:`Timeline` keeps one fixed-size ring buffer ("lane") per
*memory rank*, fed by one projection:

* a local access of rank ``r`` lands in lane ``r``;
* an RMA operation lands in the lanes of **both** its origin and its
  target (each lane records the access that concerns *that* rank's
  memory side);
* synchronization events (epochs, fences, flushes, barriers, window
  create/free) order everything and are replicated into every lane.

Every feed (live, replayed event, wire record) applies that rule, so
lane ``r`` holds the same events in global trace order whichever path
analyzed the trace — the property the forensics parity tests pin down.

Design constraints mirror the registry's:

* **Cheap.**  The replay feed (:meth:`Timeline.record_event`) appends
  the trace-event object itself — zero per-event allocation; the live
  feed (:meth:`Timeline.record`) is one tuple construction and a
  ``deque.append``; the wire feed (the flat core reading v2 records,
  through :meth:`Timeline.ring`) appends ``(seq, kind, rank, wid,
  formatter, body)`` tuples holding the event's raw record bytes.
  Payloads are held by reference and only formatted at
  :meth:`snapshot`/:meth:`lane_events` time, never on the hot path.
* **Bounded.**  Each lane is a ``deque(maxlen=cap)``; an arbitrarily
  long run costs ``O(ranks * cap)`` memory, nothing more.
* **A hard off switch.**  ``REPRO_OBS_TIMELINE=off`` (or
  ``REPRO_OBS=off``) swaps in the shared :data:`NULL_TIMELINE` whose
  ``record`` is a no-op; ``REPRO_OBS_TIMELINE=<n>`` resizes the ring.

This module deliberately imports nothing from the rest of ``repro`` —
the registry embeds a timeline per process, and the event adapters
below duck-type the trace-event classes instead of importing them.
"""

from __future__ import annotations

import os
import warnings
from collections import deque
from typing import Dict, Iterable, List, Optional

__all__ = [
    "DEFAULT_CAP",
    "NULL_TIMELINE",
    "NullTimeline",
    "Timeline",
    "TIMELINE_SCHEMA",
    "record_trace_event",
    "record_trace_event_fanout",
    "timeline_cap_from_env",
    "timeline_context",
]

TIMELINE_SCHEMA = "repro-timeline-v1"

#: default events retained per lane when ``REPRO_OBS_TIMELINE`` is unset
DEFAULT_CAP = 128

#: event kinds that open (or re-open) an access epoch — the "enclosing
#: epoch" markers :func:`timeline_context` promotes into a rank's view
#: even when they have scrolled past the K most recent events
_EPOCH_KINDS = ("lock_all", "fence")

_warned_values: set = set()


def timeline_cap_from_env(default: int = DEFAULT_CAP) -> int:
    """Ring capacity from ``REPRO_OBS_TIMELINE``: off -> 0, on/int -> cap.

    Invalid values warn once per distinct value and fall back to the
    default rather than failing the run.
    """
    raw = os.environ.get("REPRO_OBS_TIMELINE")
    if raw is None:
        return default
    text = raw.strip().lower()
    if text in ("off", "0", "false", "no", "disabled"):
        return 0
    if text in ("", "on", "true", "yes", "enabled", "default"):
        return default
    try:
        cap = int(text)
    except ValueError:
        cap = -1
    if cap < 1:
        if raw not in _warned_values:  # pragma: no branch
            _warned_values.add(raw)
            warnings.warn(
                f"REPRO_OBS_TIMELINE={raw!r} is neither on/off nor a "
                f"positive ring size; using {default}",
                RuntimeWarning, stacklevel=2,
            )
        return default
    return cap


def make_timeline(*, enabled: bool = True,
                  cap: Optional[int] = None) -> "Timeline":
    """The timeline for one registry: null when obs or the knob is off."""
    if not enabled:
        return NULL_TIMELINE
    if cap is None:
        cap = timeline_cap_from_env()
    if cap <= 0:
        return NULL_TIMELINE
    return Timeline(cap)


def _fmt(rec, lane: int) -> dict:
    """One ring record -> a stable JSON-able event dict.

    Ring records are ``(seq, kind, rank, wid, payload)`` tuples
    (recorded live), ``(seq, kind, rank, wid, formatter, body)`` wire
    tuples whose formatter's ``timeline_event(rec, lane)`` decodes the
    record bytes, replayed trace-event objects held by reference (see
    :meth:`Timeline.record_event`), or already-formatted dicts (merged
    from a checkpoint's snapshot).  ``lane`` picks the RMA side a
    replayed event shows: the target access on the target rank's lane,
    the origin access elsewhere.  Payloads and accesses duck-type
    :class:`~repro.intervals.MemoryAccess`.
    """
    if isinstance(rec, dict):
        return rec
    if isinstance(rec, tuple):
        if len(rec) == 6:
            return rec[4].timeline_event(rec, lane)
        seq, kind, rank, wid, payload = rec
        if payload is None:
            return {"seq": seq, "kind": kind, "rank": rank, "wid": wid}
        op, target, acc = payload
        interval, debug = acc.interval, acc.debug
        event = {"seq": seq, "kind": kind, "rank": rank, "wid": wid}
        if op is not None:
            event["op"] = op
            event["target"] = target
        event["lo"] = interval.lo
        event["hi"] = interval.hi
        event["type"] = acc.type.name
        event["file"] = debug.filename
        event["line"] = debug.line
        event["origin"] = acc.origin
        return event
    kind = _classify(rec)
    if kind == "sync":
        sync = getattr(rec.kind, "value", None) or str(rec.kind)
        return {"seq": rec.seq, "kind": sync, "rank": rec.rank,
                "wid": rec.wid}
    if kind == "rma":
        acc = (rec.target_access if lane == rec.target
               else rec.origin_access)
        head = {"seq": rec.seq, "kind": "rma", "rank": rec.rank,
                "wid": rec.wid, "op": rec.op, "target": rec.target}
    else:
        acc = rec.access
        head = {"seq": rec.seq, "kind": "local", "rank": rec.rank,
                "wid": -1}
    interval, debug = acc.interval, acc.debug
    head["lo"] = interval.lo
    head["hi"] = interval.hi
    head["type"] = acc.type.name
    head["file"] = debug.filename
    head["line"] = debug.line
    head["origin"] = acc.origin
    return head


def _seq_of(rec) -> int:
    if isinstance(rec, dict):
        return rec["seq"]
    if isinstance(rec, tuple):
        return rec[0]
    return rec.seq


class Timeline:
    """Per-rank bounded event history (see module docstring)."""

    __slots__ = ("cap", "_lanes", "_autoseq")

    #: hot-path guard, mirroring ``Registry.enabled``
    enabled = True

    def __init__(self, cap: int = DEFAULT_CAP) -> None:
        if cap < 1:
            raise ValueError("timeline cap must be positive")
        self.cap = cap
        self._lanes: Dict[int, deque] = {}
        self._autoseq = 0

    # -- recording ----------------------------------------------------------

    def record(self, lane: int, kind: str, rank: int, wid: int = -1,
               payload=None, seq: Optional[int] = None) -> None:
        """Append one event to ``lane`` (cheap: tuple + deque append).

        ``seq`` is the global trace sequence number when replaying a
        recorded trace; live feeders leave it ``None`` and get a
        timeline-local monotonic sequence instead.  ``payload`` is
        ``None`` for sync events and ``(op_or_None, target, access)``
        for accesses — formatted lazily at snapshot time.
        """
        if seq is None:
            self._autoseq += 1
            seq = self._autoseq
        ring = self._lanes.get(lane)
        if ring is None:
            ring = self._lanes[lane] = deque(maxlen=self.cap)
        ring.append((seq, kind, rank, wid, payload))

    def record_sync(self, kind: str, rank: int, wid: int,
                    lanes: Iterable[int], seq: Optional[int] = None) -> None:
        """Replicate one synchronization event into every given lane.

        One shared record tuple is appended to every ring — sync events
        replicate to all lanes, so this is the feed path's hottest
        multi-lane call and stays a single allocation.
        """
        if seq is None:
            self._autoseq += 1
            seq = self._autoseq
        rec = (seq, kind, rank, wid, None)
        lanes_map = self._lanes
        cap = self.cap
        for lane in lanes:
            ring = lanes_map.get(lane)
            if ring is None:
                ring = lanes_map[lane] = deque(maxlen=cap)
            ring.append(rec)

    def record_rma(self, op: str, rank: int, target: int, wid: int,
                   origin_access, target_access,
                   seq: Optional[int] = None) -> None:
        """One RMA op into both sides' lanes, sharing one sequence number.

        Each lane records the access on *its* memory side: the origin
        lane the origin-buffer access, the target lane the
        window-memory access.  A self-targeted op records the window
        (target) side — the same side a replayed lane records.
        """
        if seq is None:
            self._autoseq += 1
            seq = self._autoseq
        lanes_map = self._lanes
        cap = self.cap
        if target == rank:
            sides = ((rank, target_access),)
        else:
            sides = ((rank, origin_access), (target, target_access))
        for lane, acc in sides:
            ring = lanes_map.get(lane)
            if ring is None:
                ring = lanes_map[lane] = deque(maxlen=cap)
            ring.append((seq, "rma", rank, wid, (op, target, acc)))

    def record_event(self, lane: int, event) -> None:
        """Append one *replayed* trace event to ``lane``, by reference.

        The replay feed's fast path: no per-event allocation at all —
        the event object itself is the ring record, and the lane-side
        view (which access of an RMA op, the sync kind string) is
        derived at format time because the lane is known then.
        """
        ring = self._lanes.get(lane)
        if ring is None:
            ring = self._lanes[lane] = deque(maxlen=self.cap)
        ring.append(event)

    def record_event_fanout(self, event, nranks: int) -> None:
        """Append one replayed event to every lane its projection hits.

        The single-call twin of calling :meth:`record_event` once per
        lane the event concerns: a local access lands in its rank's
        lane, an RMA op in both sides' lanes, a sync event in all
        ``nranks`` lanes.
        """
        kind = _EVENT_KIND.get(event.__class__)
        if kind is None:
            kind = _classify(event)
        lanes_map = self._lanes
        if kind == "local":
            lane = event.rank
            ring = lanes_map.get(lane)
            if ring is None:
                ring = lanes_map[lane] = deque(maxlen=self.cap)
            ring.append(event)
            return
        if kind == "rma":
            rank, target = event.rank, event.target
            lanes = (rank,) if target == rank else (rank, target)
        else:
            lanes = range(nranks)
        cap = self.cap
        for lane in lanes:
            ring = lanes_map.get(lane)
            if ring is None:
                ring = lanes_map[lane] = deque(maxlen=cap)
            ring.append(event)

    def ring(self, lane: int) -> deque:
        """The lane's ring, created on first use (bulk feeders append)."""
        ring = self._lanes.get(lane)
        if ring is None:
            ring = self._lanes[lane] = deque(maxlen=self.cap)
        return ring

    # -- reading ------------------------------------------------------------

    def lanes(self) -> List[int]:
        return sorted(self._lanes)

    def lane_events(self, lane: int) -> List[dict]:
        """The lane's retained events, oldest first, formatted."""
        ring = self._lanes.get(lane)
        if ring is None:
            return []
        return [_fmt(rec, lane) for rec in ring]

    def __len__(self) -> int:
        return sum(len(ring) for ring in self._lanes.values())

    # -- lifecycle / snapshot / merge ---------------------------------------

    def clear(self) -> None:
        self._lanes.clear()
        self._autoseq = 0

    def snapshot(self) -> dict:
        """Stable JSON-able dump (schema :data:`TIMELINE_SCHEMA`)."""
        return {
            "schema": TIMELINE_SCHEMA,
            "cap": self.cap,
            "lanes": {
                str(lane): self.lane_events(lane) for lane in self.lanes()
            },
        }

    def absorb(self, other: "Timeline") -> None:
        """Fold another timeline's rings in, raw — no formatting round-trip.

        The scope-exit twin of ``merge(other.snapshot())``: records move
        as the tuples they were appended as, skipping the per-event
        dict formatting a snapshot pays.
        """
        lanes_map = self._lanes
        cap = self.cap
        for lane, ring in other._lanes.items():
            mine = lanes_map.get(lane)
            if mine is None:
                lanes_map[lane] = deque(ring, maxlen=cap)
                continue
            items = sorted(list(mine) + list(ring), key=_seq_of)
            mine.clear()
            mine.extend(items[-cap:])

    def merge(self, snap: Optional[dict]) -> None:
        """Fold a :meth:`snapshot` dict into this timeline.

        Lanes concatenate, re-sort by sequence number, and trim back to
        the ring capacity — how a resumed analysis restores the lanes
        its checkpoint carried.
        """
        if not snap:
            return
        for lane_key, events in snap.get("lanes", {}).items():
            if not events:
                continue
            lane = int(lane_key)
            ring = self._lanes.get(lane)
            if ring is None:
                ring = self._lanes[lane] = deque(maxlen=self.cap)
            items = sorted(list(ring) + list(events), key=_seq_of)
            ring.clear()
            ring.extend(items[-self.cap:])


class NullTimeline(Timeline):
    """Shared no-op timeline (``REPRO_OBS_TIMELINE=off`` / obs off)."""

    __slots__ = ()

    enabled = False

    def __init__(self) -> None:
        super().__init__(1)
        self.cap = 0

    def record(self, lane, kind, rank, wid=-1, payload=None,
               seq=None) -> None:
        pass

    def record_sync(self, kind, rank, wid, lanes, seq=None) -> None:
        pass

    def record_rma(self, op, rank, target, wid, origin_access,
                   target_access, seq=None) -> None:
        pass

    def record_event(self, lane, event) -> None:
        pass

    def record_event_fanout(self, event, nranks) -> None:
        pass

    def absorb(self, other) -> None:
        pass

    def merge(self, snap) -> None:
        pass


NULL_TIMELINE = NullTimeline()


# -- adapters ----------------------------------------------------------------

#: event class -> "rma" | "local" | "sync"; attribute probing costs an
#: internal AttributeError per miss, so classify each event class once
_EVENT_KIND: Dict[type, str] = {}


def _classify(event) -> str:
    """Duck-typed event classification, cached per event class.

    ``op`` marks an RMA event, ``access`` a local one, anything else a
    sync event — the :mod:`repro.mpi.trace` shapes, probed without
    importing them so this module stays import-free.
    """
    cls = event.__class__
    kind = _EVENT_KIND.get(cls)
    if kind is None:
        if hasattr(event, "op"):
            kind = "rma"
        elif hasattr(event, "access"):
            kind = "local"
        else:
            kind = "sync"
        _EVENT_KIND[cls] = kind
    return kind


def record_trace_event(tl: Timeline, event, lane: int) -> None:
    """Record one replayed trace event into ``lane``.

    For RMA events the lane shows the access on *its* side of the
    operation: the target access when the lane is the target rank, the
    origin access otherwise (derived at format time).
    """
    tl.record_event(lane, event)


def record_trace_event_fanout(tl: Timeline, event, nranks: int) -> None:
    """Record one replayed event into every lane its projection hits."""
    tl.record_event_fanout(event, nranks)


def timeline_context(tl: Timeline, lane: int, ranks: Iterable[int],
                     k: int = 8) -> dict:
    """Per-rank context views around "now" in one lane, for forensics.

    For each rank the view is its last ``k`` events in the lane (its own
    accesses/epochs plus whole-world sync), and the most recent
    epoch-opening event (``lock_all``/``fence``) still in the ring is
    promoted into the view even when it is older than ``k`` — the
    "enclosing epoch" a race diagnostic must show.
    """
    ring = tl._lanes.get(lane)
    records = list(ring) if ring else []
    n = len(records)
    views: Dict[str, List[dict]] = {}
    for rank in ranks:
        # reverse scan with early exit: resolve only the record's rank
        # until it matches (most records belong to other ranks), then
        # its kind; stop as soon as k events and the enclosing epoch
        # are in hand — formats just the records that end up in the view
        picked: List[int] = []
        epoch = None
        need_epoch = True
        for i in range(n - 1, -1, -1):
            rec = records[i]
            cls = rec.__class__
            if cls is tuple:
                rec_rank = rec[2]
            elif cls is dict:
                rec_rank = rec["rank"]
            else:
                rec_rank = rec.rank
            if rec_rank != rank and rec_rank != -1:
                continue
            if cls is tuple:
                kind = rec[1]
            elif cls is dict:
                kind = rec["kind"]
            else:
                kind = _EVENT_KIND.get(cls)
                if kind is None:
                    kind = _classify(rec)
                if kind == "sync":
                    kind = getattr(rec.kind, "value", None) or str(rec.kind)
            if len(picked) < k:
                picked.append(i)
                if kind in _EPOCH_KINDS:
                    need_epoch = False
            elif need_epoch:
                if kind in _EPOCH_KINDS:
                    epoch = i
                    break
            else:
                break
        view = [_fmt(records[i], lane) for i in reversed(picked)]
        if epoch is not None:
            view = [_fmt(records[epoch], lane)] + view
        views[str(rank)] = view
    return {"lane": lane, "cap": tl.cap, "k": k, "views": views}
