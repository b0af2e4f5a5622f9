"""Trace persistence and offline replay.

MC-Checker-style workflows separate *recording* from *analysis*: the
profiling layer writes the execution trace to disk, and the analysis
runs post mortem — possibly repeatedly, with different tools.  This
module provides exactly that for the simulated runtime:

* :func:`save_trace` / :func:`load_trace` — JSON-lines serialization of
  a :class:`TraceLog` (every access with its full metadata, every sync
  event);
* :func:`replay_trace` — feed a recorded trace into any detector, as if
  the events were live.  ``replay_trace(load_trace(p), OurDetector())``
  produces byte-for-byte the verdicts of the original run.

Record with ``World(..., trace=True)``; the world's trace log carries
the rank count needed to rebuild collective events.

Two on-disk formats exist: the v1 JSON-lines format written here, and
the compact chunked-binary ``repro-trace-v2`` of
:mod:`repro.pipeline.format` (pass ``format="binary"``).
:func:`load_trace` auto-detects either and raises
:class:`~repro.mpi.errors.TraceFormatError` — naming the file and line —
on truncated or corrupt input.  For analysis that should not hold the
whole trace in memory, use the streaming pipeline
(:func:`repro.pipeline.analyze_trace`) instead of
:func:`load_trace` + :func:`replay_trace`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Union

from ..intervals import AccessType, DebugInfo, Interval, MemoryAccess
from ..intervals.access import access_to_dict
from .memory import RegionInfo, RegionKind
from .trace import LocalEvent, RmaEvent, SyncEvent, SyncKind, TraceEvent, TraceLog

if TYPE_CHECKING:
    from .interposition import DetectorProtocol

__all__ = ["save_trace", "load_trace", "replay_trace"]

_FORMAT = "repro-trace-v1"


# -- serialization -----------------------------------------------------------


def _access_from_dict(d: dict) -> MemoryAccess:
    return MemoryAccess(
        Interval(d["lo"], d["hi"]),
        AccessType[d["type"]],
        DebugInfo(d["file"], d["line"]),
        d["origin"],
        0,
        d["flush_gen"],
        d.get("accum_op"),
        d.get("excl_epoch"),
    )


def _region_to_dict(info: RegionInfo) -> dict:
    return {"kind": info.kind.value, "rma": info.may_alias_rma}


def _region_from_dict(d: dict) -> RegionInfo:
    return RegionInfo(RegionKind(d["kind"]), d["rma"])


def _event_to_dict(event: TraceEvent) -> dict:
    if isinstance(event, LocalEvent):
        return {
            "ev": "local",
            "seq": event.seq,
            "rank": event.rank,
            "access": access_to_dict(event.access),
            "region": _region_to_dict(event.region),
        }
    if isinstance(event, RmaEvent):
        return {
            "ev": "rma",
            "seq": event.seq,
            "rank": event.rank,
            "op": event.op,
            "target": event.target,
            "wid": event.wid,
            "origin_access": access_to_dict(event.origin_access),
            "target_access": access_to_dict(event.target_access),
            "origin_region": _region_to_dict(event.origin_region),
            "target_region": _region_to_dict(event.target_region),
            "nbytes": event.nbytes,
        }
    if isinstance(event, SyncEvent):
        return {
            "ev": "sync",
            "seq": event.seq,
            "rank": event.rank,
            "kind": event.kind.value,
            "wid": event.wid,
        }
    raise TypeError(f"unknown trace event {event!r}")  # pragma: no cover


def _event_from_dict(d: dict) -> TraceEvent:
    kind = d["ev"]
    if kind == "local":
        return LocalEvent(d["seq"], d["rank"], _access_from_dict(d["access"]),
                          _region_from_dict(d["region"]))
    if kind == "rma":
        return RmaEvent(
            d["seq"], d["rank"], d["op"], d["target"], d["wid"],
            _access_from_dict(d["origin_access"]),
            _access_from_dict(d["target_access"]),
            _region_from_dict(d["origin_region"]),
            _region_from_dict(d["target_region"]),
            d["nbytes"],
        )
    if kind == "sync":
        return SyncEvent(d["seq"], d["rank"], SyncKind(d["kind"]), d["wid"])
    raise ValueError(f"unknown trace record {kind!r}")


def save_trace(
    log: TraceLog, path: Union[str, Path], *, nranks: int,
    format: str = "json",
) -> None:
    """Write a trace — v1 JSON lines or the v2 chunked binary format."""
    path = Path(path)
    if format in ("binary", "repro-trace-v2"):
        from ..pipeline.writer import BinaryTraceWriter

        with BinaryTraceWriter(path, nranks=nranks) as writer:
            for event in log.events:
                writer.write(event)
        return
    if format not in ("json", _FORMAT):
        raise ValueError(f"unknown trace format {format!r} (json or binary)")
    with path.open("w") as fh:
        json.dump({"format": _FORMAT, "nranks": nranks,
                   "events": len(log.events)}, fh)
        fh.write("\n")
        for event in log.events:
            json.dump(_event_to_dict(event), fh, separators=(",", ":"))
            fh.write("\n")


def load_trace(path: Union[str, Path]) -> "LoadedTrace":
    """Read a trace written by :func:`save_trace` (either format).

    Corrupt, truncated, or non-trace files raise
    :class:`~repro.mpi.errors.TraceFormatError` (a :class:`ValueError`)
    pointing at the offending file and line.
    """
    from ..pipeline.format import TraceReader

    reader = TraceReader(path)
    events = list(reader)
    log = TraceLog()
    log.events = events
    log._seq = max((e.seq for e in events), default=0)
    return LoadedTrace(log, reader.nranks)


class LoadedTrace:
    """A deserialized trace plus the world metadata replay needs."""

    def __init__(self, log: TraceLog, nranks: int) -> None:
        self.log = log
        self.nranks = nranks

    def __len__(self) -> int:
        return len(self.log)


class _ReplayWindow:
    """Just enough of a Window for detector on_win_create hooks."""

    def __init__(self, wid: int, nranks: int) -> None:
        self.wid = wid
        self.name = f"replay-{wid}"
        self.regions = [None] * nranks


def replay_trace(
    trace: LoadedTrace, detector: DetectorProtocol
) -> DetectorProtocol:
    """Drive a detector with a recorded trace (offline analysis).

    Events are dispatched exactly like the live interposition layer
    does; the detector's verdicts and statistics afterwards match a live
    run over the same execution.  The event→hook mapping is shared with
    the sharded pipeline workers (:mod:`repro.pipeline.shard`), so
    serial replay is also the pipeline's verdict-parity baseline.
    """
    from ..pipeline.shard import dispatch_event

    nranks = trace.nranks
    for event in trace.log.events:
        dispatch_event(detector, event, nranks)
    detector.finalize()
    return detector
