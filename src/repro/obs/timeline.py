"""Bounded per-rank event timelines — the forensics half of ``repro.obs``.

A :class:`Timeline` keeps one fixed-size ring buffer ("lane") per
*memory rank*, fed by one projection:

* a local access of rank ``r`` lands in lane ``r``;
* an RMA operation lands in the lanes of **both** its origin and its
  target (each lane shows the access on *that* rank's memory side);
* synchronization events (epochs, fences, flushes, barriers, window
  create/free) order everything and are replicated into every lane.

Every feed applies that rule, so lane ``r`` holds the same events in
global trace order whichever path analyzed the trace — the property
the forensics parity tests pin down.

Every ring record is one tuple, ``(seq, kind, rank, wid, fmt,
payload)``, formatted on read by ``fmt(rec, lane)`` into a stable
JSON-able dict; ``fmt`` is ``None`` for a sync event, whose dict is the
first four fields.  ``lane`` picks an RMA op's side: the target access
on the target rank's lane, the origin access elsewhere.  The feeds
differ only in the payload they hold by reference:

* live (:meth:`Timeline.record`, :meth:`~Timeline.record_rma`,
  :meth:`~Timeline.record_sync`): a local's ``MemoryAccess``, or an RMA
  op's ``(op, target, origin access, target access)``;
* replayed trace events (:meth:`Timeline.record_event_fanout`, fed by
  :func:`~repro.pipeline.shard.dispatch_batch`; its one-lane form
  :meth:`~Timeline.record_event` is kept for the e2e benchmark's traced
  run): the local event's access, or the RMA event itself;
* the flat core's wire records (appended through
  :meth:`Timeline.ring`): the event's record bytes, with ``fmt`` the
  chunk's :meth:`~repro.pipeline.format.WireStream.timeline_event`;
* a checkpoint's snapshot (:meth:`Timeline.merge`): the snapshot's own
  event dict, which ``fmt`` hands back as is.

Design constraints mirror the registry's:

* **Cheap.**  One record per event, shared by every lane it lands in;
  payloads are only formatted at :meth:`~Timeline.snapshot`,
  :meth:`~Timeline.lane_events` and forensics time, never on the hot
  path.
* **Bounded.**  Each lane is a ``deque(maxlen=cap)`` of
  :data:`DEFAULT_CAP` events; an arbitrarily long run costs
  ``O(ranks * cap)`` memory, nothing more.
* **A hard off switch.**  ``REPRO_OBS_TIMELINE=off`` (or
  ``REPRO_OBS=off``) leaves a registry's timeline ``None``; every
  feeder tests for that once.

This module deliberately imports nothing from the rest of ``repro`` —
the registry embeds a timeline per process, and the replay feed
duck-types the trace-event classes instead of importing them.
"""

from __future__ import annotations

import os
import warnings
from collections import deque
from operator import itemgetter
from typing import Dict, Iterable, List, Optional

__all__ = [
    "DEFAULT_CAP",
    "Timeline",
    "TIMELINE_SCHEMA",
    "timeline_cap_from_env",
    "timeline_context",
]

TIMELINE_SCHEMA = "repro-timeline-v1"

#: events retained per lane
DEFAULT_CAP = 128

#: event kinds that open (or re-open) an access epoch — the "enclosing
#: epoch" markers :func:`timeline_context` promotes into a rank's view
#: even when they have scrolled past the K most recent events
_EPOCH_KINDS = ("lock_all", "fence")

_warned_values: set = set()


def timeline_cap_from_env() -> int:
    """Ring capacity per ``REPRO_OBS_TIMELINE``: 0 when off, else 128.

    Any value other than on/off warns once per distinct value and
    leaves the timeline on rather than failing the run.
    """
    raw = os.environ.get("REPRO_OBS_TIMELINE")
    if raw is None:
        return DEFAULT_CAP
    text = raw.strip().lower()
    if text in ("off", "0", "false", "no", "disabled"):
        return 0
    if text not in ("", "on", "true", "yes", "enabled", "default") \
            and raw not in _warned_values:
        _warned_values.add(raw)
        warnings.warn(
            f"REPRO_OBS_TIMELINE={raw!r} is neither on nor off; keeping "
            f"the {DEFAULT_CAP}-event timeline on",
            RuntimeWarning, stacklevel=2,
        )
    return DEFAULT_CAP


def make_timeline(*, enabled: bool = True) -> Optional["Timeline"]:
    """The timeline for one registry: None when obs or the knob is off."""
    return Timeline() if enabled and timeline_cap_from_env() else None


# -- record formatters --------------------------------------------------------


def _with_access(event: dict, acc) -> dict:
    """``event`` plus one access's fields (duck-types ``MemoryAccess``)."""
    interval, debug = acc.interval, acc.debug
    event["lo"] = interval.lo
    event["hi"] = interval.hi
    event["type"] = acc.type.name
    event["file"] = debug.filename
    event["line"] = debug.line
    event["origin"] = acc.origin
    return event


def _fmt_access(rec: tuple, lane: int) -> dict:
    """A local access; the payload is its ``MemoryAccess``."""
    seq, kind, rank, wid, _, acc = rec
    return _with_access(
        {"seq": seq, "kind": kind, "rank": rank, "wid": wid}, acc)


def _fmt_rma(rec: tuple, lane: int) -> dict:
    """A live RMA op; the payload is ``(op, target, origin, window)``."""
    seq, kind, rank, wid, _, (op, target, origin, window) = rec
    return _with_access(
        {"seq": seq, "kind": kind, "rank": rank, "wid": wid, "op": op,
         "target": target},
        window if lane == target else origin)


def _fmt_rma_event(rec: tuple, lane: int) -> dict:
    """A replayed RMA op; the payload is the ``RmaEvent``."""
    seq, kind, rank, wid, _, event = rec
    target = event.target
    return _with_access(
        {"seq": seq, "kind": kind, "rank": rank, "wid": wid,
         "op": event.op, "target": target},
        event.target_access if lane == target else event.origin_access)


def _fmt_restored(rec: tuple, lane: int) -> dict:
    """A record restored from a snapshot: its event dict, the very
    object, so a resumed run's next checkpoint pickles the same bytes."""
    return rec[5]


def _fmt(rec: tuple, lane: int) -> dict:
    """One ring record -> its stable JSON-able event dict."""
    fmt = rec[4]
    if fmt is None:
        return {"seq": rec[0], "kind": rec[1], "rank": rec[2], "wid": rec[3]}
    return fmt(rec, lane)


#: event class -> "rma" | "local" | "sync"; attribute probing costs an
#: internal AttributeError per miss, so classify each event class once
_EVENT_KIND: Dict[type, str] = {}


def _event_record(event) -> tuple:
    """The ring record of one replayed trace event.

    ``op`` marks an RMA event, ``access`` a local one, anything else a
    sync event — the :mod:`repro.mpi.trace` shapes, probed once per
    class without importing them.
    """
    cls = event.__class__
    kind = _EVENT_KIND.get(cls)
    if kind is None:
        kind = _EVENT_KIND[cls] = (
            "rma" if hasattr(event, "op")
            else "local" if hasattr(event, "access") else "sync")
    if kind == "local":
        return (event.seq, "local", event.rank, -1, _fmt_access,
                event.access)
    if kind == "rma":
        return (event.seq, "rma", event.rank, event.wid, _fmt_rma_event,
                event)
    return (event.seq, event.kind.value, event.rank, event.wid, None, None)


_seq = itemgetter(0)


class _Lanes(dict):
    """lane -> ring; indexing creates a missing lane's ring (``get``
    does not), so every feed appends with one lookup."""

    __slots__ = ("cap",)

    def __init__(self, cap: int) -> None:
        super().__init__()
        self.cap = cap

    def __missing__(self, lane: int) -> deque:
        ring = self[lane] = deque(maxlen=self.cap)
        return ring


class Timeline:
    """Per-rank bounded event history (see module docstring)."""

    __slots__ = ("cap", "_lanes", "_autoseq")

    def __init__(self, cap: int = DEFAULT_CAP) -> None:
        if cap < 1:
            raise ValueError("timeline cap must be positive")
        self.cap = cap
        self._lanes = _Lanes(cap)
        self._autoseq = 0

    def ring(self, lane: int) -> deque:
        """The lane's ring, created on first use (bulk feeders append)."""
        return self._lanes[lane]

    def _next_seq(self, seq: Optional[int]) -> int:
        """``seq`` when replaying a trace; live feeders leave it ``None``
        and get a timeline-local monotonic sequence instead."""
        if seq is None:
            self._autoseq += 1
            return self._autoseq
        return seq

    # -- recording ----------------------------------------------------------

    def record(self, lane: int, kind: str, rank: int, wid: int = -1,
               payload=None, seq: Optional[int] = None) -> None:
        """Append one live event to ``lane``: a sync event (no
        ``payload``) or a local access (``payload`` its access)."""
        self._lanes[lane].append((
            self._next_seq(seq), kind, rank, wid,
            None if payload is None else _fmt_access, payload))

    def record_sync(self, kind: str, rank: int, wid: int,
                    lanes: Iterable[int], seq: Optional[int] = None) -> None:
        """Replicate one synchronization event into every given lane."""
        rec = (self._next_seq(seq), kind, rank, wid, None, None)
        rings = self._lanes
        for lane in lanes:
            rings[lane].append(rec)

    def record_rma(self, op: str, rank: int, target: int, wid: int,
                   origin_access, target_access,
                   seq: Optional[int] = None) -> None:
        """One live RMA op into both sides' lanes, as one record.

        Each lane shows the access on *its* memory side, so a
        self-targeted op shows the window (target) side — the same side
        a replayed lane shows.
        """
        rec = (self._next_seq(seq), "rma", rank, wid, _fmt_rma,
               (op, target, origin_access, target_access))
        rings = self._lanes
        rings[rank].append(rec)
        if target != rank:
            rings[target].append(rec)

    def record_event(self, lane: int, event) -> None:
        """Append one *replayed* trace event to ``lane``."""
        self._lanes[lane].append(_event_record(event))

    def record_event_fanout(self, event, nranks: int) -> None:
        """Append one replayed event to every lane its projection hits.

        The single-call twin of calling :meth:`record_event` once per
        lane the event concerns, sharing one record: a local access
        lands in its rank's lane, an RMA op in both sides' lanes, a sync
        event in all ``nranks`` lanes.
        """
        rec = _event_record(event)
        kind = rec[1]
        rings = self._lanes
        if kind == "local":
            rings[rec[2]].append(rec)
        elif kind == "rma":
            rank, target = rec[2], event.target
            rings[rank].append(rec)
            if target != rank:
                rings[target].append(rec)
        else:
            for lane in range(nranks):
                rings[lane].append(rec)

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
        """Fold another timeline's records in.

        Each lane takes the union of both rings in sequence order,
        trimmed back to the ring capacity.
        """
        cap = self.cap
        for lane, ring in other._lanes.items():
            mine = self._lanes.get(lane)
            if mine is None:
                self._lanes[lane] = deque(ring, maxlen=cap)
                continue
            items = sorted([*mine, *ring], key=_seq)
            mine.clear()
            mine.extend(items[-cap:])

    def merge(self, snap: Optional[dict]) -> None:
        """Fold a :meth:`snapshot` dict in — how a resumed analysis
        restores the lanes its checkpoint carried: every event dict
        becomes a record that formats back to itself, then
        :meth:`absorb` folds them."""
        if not snap:
            return
        restored = Timeline(self.cap)
        for lane_key, events in snap.get("lanes", {}).items():
            if events:
                restored._lanes[int(lane_key)].extend(
                    (e["seq"], e["kind"], e["rank"], e["wid"],
                     _fmt_restored, e) for e in events)
        self.absorb(restored)


def timeline_context(tl: Optional[Timeline], lane: int, ranks: Iterable[int],
                     k: int = 8) -> dict:
    """Per-rank context views around "now" in one lane, for forensics.

    For each rank the view is its last ``k`` events in the lane (its own
    accesses/epochs plus whole-world sync), and the most recent
    epoch-opening event (``lock_all``/``fence``) still in the ring is
    promoted into the view even when it is older than ``k`` — the
    "enclosing epoch" a race diagnostic must show.  An off timeline
    (``None``) gives empty views.
    """
    ring = tl._lanes.get(lane) if tl is not None else None
    records = list(ring) if ring else []
    n = len(records)
    views: Dict[str, List[dict]] = {}
    for rank in ranks:
        # reverse scan with early exit: stop as soon as k events and the
        # enclosing epoch are in hand — formats just the records that
        # end up in the view
        picked: List[int] = []
        epoch = None
        need_epoch = True
        for i in range(n - 1, -1, -1):
            rec = records[i]
            if rec[2] != rank and rec[2] != -1:
                continue
            kind = rec[1]
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
    return {"lane": lane, "cap": tl.cap if tl is not None else 0, "k": k,
            "views": views}
