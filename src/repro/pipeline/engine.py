"""The sharded analysis engine: worker pool, batching, aggregation.

``analyze_trace`` is the one entry point.  With ``jobs=1`` it replays
the trace through a single detector in-process (the baseline every
speedup is measured against); with ``jobs>1`` it runs the sharded
pipeline:

* the **producer** (parent process) streams events off the trace,
  routes each to its shard(s) (:func:`repro.pipeline.shard.shards_of`),
  and ships them in batches over one *bounded* queue per worker — a slow
  worker back-pressures the producer instead of ballooning memory;
* each **worker** owns ``nranks / jobs`` shards, one fresh detector
  instance per shard, and dispatches its batches in arrival order
  (which is global trace order, so per-shard analysis is deterministic);
* the **aggregator** collects per-shard verdicts, drops replica-side
  reports (:func:`repro.pipeline.shard.own_reports` runs in the worker),
  deduplicates, and produces one canonically ordered verdict list plus
  pipeline metrics (events/s, per-shard BST peaks, queue depths).

``dispatch="file"`` is an alternative fan-out for on-disk traces: every
worker streams the file itself and keeps only its shards' events.  The
producer then ships nothing at all — on machines where decode is cheap
relative to detector work this trades duplicated decoding for zero IPC.

The engine is *supervised* (see :mod:`repro.pipeline.resilience`):
workers heartbeat on the result queue, every wait is bounded, and a
crashed or wedged worker is detected rather than hung on.  In file
dispatch the dead worker's shard-group is re-run with capped
exponential backoff (replay is deterministic, so retried verdicts are
byte-identical); once ``retries`` is exhausted — or immediately in
queue dispatch, whose in-flight batches die with the worker — the
engine *degrades* to serial in-process replay of the missing shards
and flags the result ``degraded`` instead of failing the whole
analysis.  ``salvage=True`` additionally reads damaged traces
best-effort (:class:`TraceReader` ``strict=False``), with the loss
accounted in ``PipelineResult.salvage``.

Verdict parity: for every modelled detector the merged verdict set is
byte-identical (after canonical ordering) to a serial
:func:`~repro.mpi.trace_io.replay_trace` over the same trace — the
property the tier-1 parity tests pin down on the miniVite and CFD-Proxy
traces, and that the chaos suite (``tests/resilience/``) re-asserts
under injected worker kills and stalls.
"""

from __future__ import annotations

import json
import os
import queue as _queue
import time
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Union

from .. import obs
from ..core.report import RaceReport
from ..mpi.errors import TraceChainMismatch, WorkerCrashedError
from ..mpi.trace import TraceEvent, TraceLog
from ..mpi.trace_io import LoadedTrace, _access_to_dict
from . import checkpoint as _ckpt
from .checkpoint import (
    CheckpointPlan,
    CheckpointStore,
    TraceDivergedError,
)
from .format import FORMAT_V2, TraceReader, trace_chain
from .resilience import (
    HEARTBEAT_INTERVAL,
    WorkerFailure,
    backoff_delay,
    collect_results,
    reap_processes,
)
from .shard import dispatch_batch, dispatch_event, own_reports, shards_of

__all__ = [
    "DETECTOR_SPECS",
    "PipelineResult",
    "ShardStats",
    "analyze_trace",
    "canonical_forensics",
    "canonical_verdicts",
    "detector_display_name",
]


def _our():
    core = os.environ.get("REPRO_CORE", "flat")
    if core == "flat":
        from ..core import FlatDetector

        return FlatDetector()
    if core == "object":
        # legacy escape hatch, kept one release as the differential oracle
        from ..core import OurDetector

        return OurDetector()
    raise ValueError(
        f"unknown REPRO_CORE {core!r}; have 'flat' (default) and 'object'")


def _rma():
    from ..detectors import RmaAnalyzerLegacy

    return RmaAnalyzerLegacy()


def _mc():
    from ..detectors import McCChecker

    return McCChecker()


def _must():
    from ..detectors import MustRma

    return MustRma()


#: CLI names → detector factories (all existing detectors, unchanged)
DETECTOR_SPECS: Dict[str, Callable] = {
    "our": _our,
    "rma": _rma,
    "mc": _mc,
    "must": _must,
}

#: backstop on memory-guard worker recycles per analysis.  The guard
#: only recycles after at least one new chunk of progress, so every
#: recycle advances the trace — this cap exists to bound pathological
#: configurations (max_rss below the interpreter's baseline), not to be
#: reached in practice.
_MAX_RECYCLES = 256


def _make_detector(name: str):
    try:
        return DETECTOR_SPECS[name]()
    except KeyError:
        raise ValueError(
            f"unknown detector {name!r}; have {sorted(DETECTOR_SPECS)}"
        ) from None


def detector_display_name(name: str) -> str:
    return _make_detector(name).name


# -- verdict canonicalization -------------------------------------------------


def _verdict_dict(report: RaceReport) -> dict:
    return {
        "rank": report.rank,
        "window": report.window,
        "stored": _access_to_dict(report.stored),
        "new": _access_to_dict(report.new),
        "detector": report.detector,
    }


def canonical_verdicts(reports: Iterable[RaceReport]) -> List[dict]:
    """Deduplicated race verdicts in one deterministic order.

    Serial replay reports races in discovery order; the pipeline merges
    per-shard lists.  Canonicalizing both through this function makes
    'same verdicts' a byte-for-byte comparison of the JSON dumps.
    """
    unique = {}
    for report in reports:
        d = _verdict_dict(report)
        unique[json.dumps(d, sort_keys=True)] = d
    return [unique[k] for k in sorted(unique)]


def canonical_forensics(reports: Iterable[RaceReport]) -> List[dict]:
    """Deduplicated ``repro-forensics-v1`` bundles, verdict-keyed order.

    Forensics travel *outside* the verdict dicts (verdict parity with
    plain serial replay stays byte-exact), deduplicated by the same
    verdict key.  The first occurrence per key wins: a race pair's rank
    maps to exactly one shard, which sees the same event subsequence as
    serial replay, so first-occurrence bundles are identical either way.
    """
    unique: Dict[str, dict] = {}
    for report in reports:
        if report.forensics is None:
            continue
        key = json.dumps(_verdict_dict(report), sort_keys=True)
        if key not in unique:
            unique[key] = report.forensics
    return [unique[k] for k in sorted(unique)]


# -- results -----------------------------------------------------------------


@dataclass
class ShardStats:
    """Per-shard tail of the pipeline: what one detector instance saw."""

    shard: int
    events: int = 0
    races: int = 0
    peak_nodes: int = 0
    processed: int = 0
    #: canonical (own-rank) reports — carried for aggregation, not shown
    reports: List[RaceReport] = field(default_factory=list, repr=False)

    def to_dict(self) -> dict:
        return {
            "shard": self.shard,
            "events": self.events,
            "races": self.races,
            "peak_nodes": self.peak_nodes,
            "processed": self.processed,
        }


@dataclass
class PipelineResult:
    """Merged verdicts + metrics of one analysis run."""

    detector: str
    nranks: int
    jobs: int
    dispatch: str
    events_total: int
    wall_seconds: float
    verdicts: List[dict]
    shard_stats: List[ShardStats]
    queue_peak: List[int] = field(default_factory=list)
    #: worker respawns the supervisor performed (file-dispatch retries)
    retries: int = 0
    #: True when some shard-groups fell back to serial in-process replay
    degraded: bool = False
    #: every worker attempt that crashed/stalled, as plain dicts
    failed_workers: List[dict] = field(default_factory=list)
    #: salvage accounting when the trace was read with ``strict=False``
    salvage: Optional[dict] = None
    #: True when a resource guard (deadline / memory, serial mode)
    #: stopped the analysis early; the verdicts cover only
    #: ``analyzed_fraction`` of the trace and the run is resumable from
    #: its checkpoint directory
    partial: bool = False
    #: fraction of the trace's events analyzed (1.0 for a completed
    #: checkpointed run, None when unknowable or checkpointing was off)
    analyzed_fraction: Optional[float] = None
    #: checkpoint/resume accounting: dir, cadence, files written,
    #: per-lane ``resumed`` records (from_seq, events_skipped),
    #: quarantined checkpoint files, recycles.  None with no --ckpt-dir
    checkpoint: Optional[dict] = None
    #: merged observability snapshot of this run (schema repro-obs-v1);
    #: None when metrics are disabled (REPRO_OBS=off)
    obs: Optional[dict] = None
    #: one repro-forensics-v1 bundle per verdict (same canonical order
    #: as ``verdicts``); empty when obs or the timeline is disabled
    forensics: List[dict] = field(default_factory=list)
    #: materialized repro-timeline-v1 snapshot (see :attr:`timeline`)
    _timeline_snap: Optional[dict] = field(default=None, repr=False)
    #: the run's live timeline, formatted lazily on first access —
    #: analysis never pays snapshot formatting unless someone exports
    _timeline_live: Optional[object] = field(default=None, repr=False)

    @property
    def timeline(self) -> Optional[dict]:
        """Merged repro-timeline-v1 snapshot (None when the timeline is off).

        Formatting a snapshot walks every retained lane event, so the
        engine hands over the live timeline and the dict is built here,
        on first read — ``analyze_trace`` itself stays snapshot-free.
        """
        if self._timeline_snap is None and self._timeline_live is not None:
            self._timeline_snap = self._timeline_live.snapshot()
            self._timeline_live = None
        return self._timeline_snap

    @timeline.setter
    def timeline(self, snap: Optional[dict]) -> None:
        self._timeline_snap = snap
        self._timeline_live = None

    @property
    def races(self) -> int:
        return len(self.verdicts)

    @property
    def events_per_sec(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.events_total / self.wall_seconds

    def to_dict(self) -> dict:
        return {
            "detector": self.detector,
            "nranks": self.nranks,
            "jobs": self.jobs,
            "dispatch": self.dispatch,
            "events_total": self.events_total,
            "wall_seconds": round(self.wall_seconds, 6),
            "events_per_sec": round(self.events_per_sec, 1),
            "races": self.races,
            "verdicts": self.verdicts,
            "shards": [s.to_dict() for s in self.shard_stats],
            "queue_peak": self.queue_peak,
            "retries": self.retries,
            "degraded": self.degraded,
            "failed_workers": list(self.failed_workers),
            "salvage": self.salvage,
            "partial": self.partial,
            "analyzed_fraction": self.analyzed_fraction,
            "checkpoint": self.checkpoint,
            "obs": self.obs,
            "forensics": self.forensics,
            "timeline": self.timeline,
        }


# -- worker side -------------------------------------------------------------


class _ShardGroup:
    """The shards one worker owns: a fresh detector instance per shard."""

    def __init__(self, shards: Sequence[int], detector: str, nranks: int) -> None:
        self.nranks = nranks
        self.detectors = {s: _make_detector(detector) for s in shards}
        self.events = {s: 0 for s in shards}

    def dispatch(self, shard: int, batch: Sequence[TraceEvent]) -> None:
        det = self.detectors[shard]
        tl = obs.active().timeline
        # the shard's lane is fed *before* analyzing each event, so a
        # race's forensics include the access that triggered it
        dispatch_batch(
            det, batch, self.nranks,
            timeline=tl if tl.enabled else None, lane=shard,
        )
        self.events[shard] += len(batch)
        obs.active().counter("pipeline.events.analyzed").add(len(batch))

    def wire_stream(self, reader: TraceReader, start: Optional[dict]):
        """The reader's wire stream when every shard detector reads it."""
        if all(hasattr(d, "ingest_wire") for d in self.detectors.values()):
            return reader.wire_stream(start)
        return None

    def ingest_wire(self, shard: int, payload, off: int, nevents: int,
                    wire) -> int:
        """One chunk's records into one shard: the events routed to it."""
        tl = obs.active().timeline
        n = self.detectors[shard].ingest_wire(
            payload, off, nevents, wire, self.nranks,
            timeline=tl if tl.enabled else None, lane=shard)
        self.events[shard] += n
        obs.active().counter("pipeline.events.analyzed").add(n)
        return n

    def snapshot_state(self) -> dict:
        """Checkpointable state of every shard detector (+ event counts)."""
        return {
            "detectors": {s: d.snapshot() for s, d in self.detectors.items()},
            "events": dict(self.events),
        }

    def restore_state(self, state: dict) -> None:
        for shard, det in self.detectors.items():
            det.restore(state["detectors"][shard])
        self.events.update(state["events"])

    def finish(self) -> List[ShardStats]:
        out = []
        for shard in sorted(self.detectors):
            det = self.detectors[shard]
            det.finalize()
            # publish only the shard's canonical (own-rank) node state;
            # replica stores are published by their home shard
            det.publish_obs(own_rank=shard)
            reports = own_reports(det, shard)
            stats = det.node_stats()
            out.append(ShardStats(
                shard=shard,
                events=self.events[shard],
                races=len(reports),
                peak_nodes=stats.max_nodes_per_rank.get(shard, 0),
                processed=stats.accesses_processed,
                reports=reports,
            ))
        return out


def _worker_payload(group: _ShardGroup, attempt: int = 0) -> dict:
    """The worker's "done" payload: shard stats + its registry snapshot.

    ``finish()`` publishes each detector's final statistics into the
    worker's registry first, so the snapshot carries them back to the
    parent for merging.  ``attempt`` tags the payload with the attempt
    that produced it: the parent merges *only* the winning attempt's
    registry, so a stale attempt's snapshot can never double-count
    metrics or timeline events.
    """
    stats = group.finish()
    reg = obs.active()
    return {
        "stats": stats,
        "attempt": attempt,
        "obs": reg.snapshot() if reg.enabled else None,
        "timeline": (reg.timeline.snapshot()
                     if reg.timeline.enabled else None),
    }


# -- checkpoint plumbing ------------------------------------------------------


def _ckpt_meta(detector: str, nranks: int, path, shards, cursor: dict) -> dict:
    """JSON header metadata pinning what this checkpoint belongs to."""
    trace_bytes = None
    if path is not None:
        try:
            trace_bytes = os.path.getsize(path)
        except OSError:
            pass
    return {
        "detector": detector,
        "nranks": nranks,
        "trace": str(path) if path is not None else None,
        "trace_bytes": trace_bytes,
        "shards": list(shards),
        "events_applied": cursor["events_applied"],
        "chunk": cursor.get("chunk"),
        "chain": cursor.get("chain"),
    }


def _ckpt_expect(detector: str, nranks: int, path) -> dict:
    """Header fields a checkpoint must match to be resumed here.

    Trace identity is pinned by size, not path, so a trace copied or
    moved next to its checkpoint directory still resumes.
    """
    expect = {"detector": detector, "nranks": nranks}
    if path is not None:
        try:
            expect["trace_bytes"] = os.path.getsize(path)
        except OSError:
            pass
    return expect


def _verify_resume_trace(meta: dict, path) -> None:
    """Check the trace on disk still begins with the checkpointed prefix.

    Chain-carrying checkpoints (v2 traces) verify by *content*: the
    rolling chain recomputed over the first ``meta["chunk"]`` chunks
    must equal the cursor's chain value, which proves byte-identity of
    the analyzed prefix — and therefore admits append-only extensions,
    the whole point of incremental re-analysis.  A shorter or differing
    file raises :class:`TraceDivergedError`.  Checkpoints without a
    chain (v1 traces, in-memory sources, pre-chain files) fall back to
    the legacy exact-size pin.
    """
    if path is None:
        return
    chain = meta.get("chain")
    chunk = meta.get("chunk")
    if chain and chunk:
        reg = obs.active()
        try:
            got = trace_chain(path, upto=chunk)
        except TraceChainMismatch as exc:
            reg.counter("incremental.divergences").add(1)
            raise TraceDivergedError(
                f"{path}: trace does not match the checkpointed prefix "
                f"({exc})", path=str(path), chunk=exc.chunk) from exc
        if len(got["chunks"]) < chunk:
            reg.counter("incremental.divergences").add(1)
            raise TraceDivergedError(
                f"{path}: trace does not match the checkpointed prefix "
                f"(only {len(got['chunks'])} complete chunk(s) on disk, "
                f"checkpoint covers {chunk})", path=str(path))
        if got["chunks"][chunk - 1] != chain:
            reg.counter("incremental.divergences").add(1)
            raise TraceDivergedError(
                f"{path}: trace does not match the checkpointed prefix "
                f"(chain diverged at or before chunk {chunk})",
                path=str(path), chunk=chunk)
        return
    want = meta.get("trace_bytes")
    if want is not None:
        try:
            got_bytes = os.path.getsize(path)
        except OSError:
            return
        if got_bytes != want:
            raise _ckpt.CheckpointError(
                f"checkpoint trace_bytes={want!r} does not match this "
                f"analysis ({got_bytes!r})")


def _ckpt_state(body: dict, cursor: dict, ticks: int) -> dict:
    """Payload for one checkpoint: analysis state + registry deltas."""
    reg = obs.active()
    state = dict(body)
    state["cursor"] = cursor
    state["ticks"] = ticks
    state["obs"] = reg.snapshot() if reg.enabled else None
    state["timeline"] = (reg.timeline.snapshot()
                         if reg.timeline.enabled else None)
    return state


def _ckpt_restore_registry(reg, state: dict) -> None:
    """Fold a checkpoint's obs/timeline deltas back into a registry."""
    if state.get("obs") and reg.enabled:
        reg.merge(state["obs"])
    if state.get("timeline") and reg.timeline.enabled:
        reg.timeline.merge(state["timeline"])


def _virtual_chunks(events, start: Optional[dict]):
    """Chunk-wise iteration over an in-memory event list (LoadedTrace).

    Mirrors :meth:`TraceReader.iter_chunks` for sources with no file to
    seek: resume skips ``events_applied`` events by position.
    """
    size = TraceReader.VIRTUAL_CHUNK_EVENTS
    total = start["events_applied"] if start is not None else 0
    it = iter(events)
    if total:
        next(islice(it, total - 1, total), None)  # advance past the prefix
    while True:
        chunk = list(islice(it, size))
        if not chunk:
            break
        total += len(chunk)
        yield chunk, {"kind": "seq", "events_applied": total,
                      "salvage": None}


def _payload_stats(payload) -> list:
    """Shard stats from a worker payload (dict) or inline replay (list)."""
    if isinstance(payload, dict):
        return payload["stats"]
    return payload


def _worker_queue(worker_id, shards, detector, nranks, in_q, out_q,
                  attempt=0, fault_plan=None):
    """Queue-dispatch worker: drain (shard, batch) items until sentinel."""
    reg = obs.reset()  # fork copied the parent's registry: start clean
    group = _ShardGroup(shards, detector, nranks)
    ticks = 0
    last_hb = time.monotonic()
    while True:
        item = in_q.get()
        if item is None:
            break
        shard, batch = item
        with reg.span("worker.analyze"):
            group.dispatch(shard, batch)
        ticks += 1
        if fault_plan is not None:
            fault_plan.fire(worker_id, attempt, ticks)
        now = time.monotonic()
        if now - last_hb >= HEARTBEAT_INTERVAL:
            out_q.put(("hb", worker_id, attempt, ticks))
            last_hb = now
    out_q.put(("done", worker_id, attempt, _worker_payload(group, attempt)))


def _worker_file(worker_id, shards, detector, nranks, path, out_q,
                 attempt=0, fault_plan=None, strict=True, ckpt=None):
    """File-dispatch worker: stream the trace itself, keep own shards.

    With a :class:`~repro.pipeline.checkpoint.CheckpointPlan`, the
    worker iterates the trace *chunk-wise* and at chunk boundaries (the
    only points where the reader cursor is crash-consistent):

    * every ``ckpt.every`` chunks it writes its lane's checkpoint;
    * past ``ckpt.deadline_at`` it checkpoints, reports a ``partial``
      payload and stops cleanly (resumable);
    * past ``ckpt.max_rss_mb`` it checkpoints and asks the engine to
      *recycle* it — respawn a fresh process that resumes mid-trace.

    A retry attempt (``attempt > 0``) or an explicit ``ckpt.resume``
    restores the newest valid checkpoint first and replays only the
    events after it, instead of re-running the shard-group from byte 0.

    A strict v2 trace is read as wire records, each owned shard's flat
    detector taking the chunk with a lane filter; other sources are
    decoded and routed event by event.  Fault-plan ticks count the
    events analyzed either way (per chunk on the wire path).
    """
    reg = obs.reset()  # fork copied the parent's registry: start clean
    group = _ShardGroup(shards, detector, nranks)
    own = set(shards)
    ticks = 0
    last_hb = time.monotonic()

    store = None
    start = None
    ckpt_info = {"written": 0, "resumed_from": None, "events_skipped": 0,
                 "quarantined": []}
    if ckpt is not None:
        store = CheckpointStore(ckpt.dir, f"w{worker_id}")
        if ckpt.resume or attempt > 0:
            loaded = store.load_latest(
                expect=_ckpt_expect(detector, nranks, path))
            ckpt_info["quarantined"] = list(store.quarantined)
            if loaded is not None:
                header, state = loaded
                group.restore_state(state["group"])
                _ckpt_restore_registry(reg, state)
                start = state["cursor"]
                ticks = state["ticks"]
                ckpt_info["resumed_from"] = header["seq"]
                ckpt_info["events_skipped"] = start["events_applied"]

    reader = TraceReader(path, strict=strict)
    wire = group.wire_stream(reader, start)

    def tick(n: int) -> None:
        nonlocal ticks, last_hb
        ticks += n
        if fault_plan is not None:
            fault_plan.fire(worker_id, attempt, ticks)
        now = time.monotonic()
        if now - last_hb >= HEARTBEAT_INTERVAL:
            out_q.put(("hb", worker_id, attempt, ticks))
            last_hb = now

    def wire_chunks():
        # each owned shard reads the chunk's records itself, skipping
        # the events routed elsewhere by their rank fields
        for payload, off, count in wire:
            for shard in shards:
                with reg.span("worker.analyze"):
                    n = group.ingest_wire(shard, payload, off, count, wire)
                tick(n)
            yield wire.cursor()

    def decoded_chunks():
        for events_chunk, chunk_cursor in reader.iter_chunks(start=start):
            for event in events_chunk:
                for shard in shards_of(event, nranks):
                    if shard in own:
                        with reg.span("worker.analyze"):
                            group.dispatch(shard, (event,))
                        tick(1)
            yield chunk_cursor

    chunks_since = 0
    stop = None
    cursor = start
    with reg.span("worker.read"):
        for cursor in (wire_chunks() if wire is not None
                       else decoded_chunks()):
            if ckpt is None:
                continue
            chunks_since += 1
            wrote = False
            if ckpt.every and chunks_since >= ckpt.every:
                store.write(
                    _ckpt_meta(detector, nranks, path, shards, cursor),
                    _ckpt_state({"group": group.snapshot_state()},
                                cursor, ticks))
                ckpt_info["written"] += 1
                chunks_since = 0
                wrote = True
            if ckpt.deadline_at is not None and time.time() >= ckpt.deadline_at:
                stop = "deadline"
            elif ckpt.max_rss_mb is not None:
                # guard checks run only at chunk boundaries, i.e. after at
                # least one chunk of progress this attempt — so every
                # recycle advances the trace and recycling terminates.
                # An unavailable RSS probe (None) disables the guard.
                rss = _ckpt.current_rss_mb()
                if rss is not None and rss > ckpt.max_rss_mb:
                    stop = "recycle"
            if stop is not None:
                if not wrote:
                    store.write(
                        _ckpt_meta(detector, nranks, path, shards, cursor),
                        _ckpt_state({"group": group.snapshot_state()},
                                    cursor, ticks))
                    ckpt_info["written"] += 1
                break

    if stop == "recycle":
        out_q.put(("recycle", worker_id, attempt, {"ckpt": ckpt_info}))
        return
    payload = _worker_payload(group, attempt)
    payload["ckpt"] = ckpt_info if ckpt is not None else None
    payload["events_applied"] = (cursor["events_applied"]
                                 if cursor is not None else ticks)
    if not strict:
        payload["salvage"] = reader.salvage_report()
    kind = "partial" if stop == "deadline" else "done"
    out_q.put((kind, worker_id, attempt, payload))


def _run_shards_inline(events, shards, detector, nranks):
    """Degraded path: replay one shard-group serially, in this process.

    Replay is deterministic, so the verdicts are exactly what the dead
    worker would have reported — the analysis completes, just without
    that worker's parallelism.
    """
    group = _ShardGroup(shards, detector, nranks)
    own = set(shards)
    for event in events:
        for shard in shards_of(event, nranks):
            if shard in own:
                group.dispatch(shard, (event,))
    return group.finish()


# -- driver ------------------------------------------------------------------

Source = Union[str, Path, TraceReader, LoadedTrace]


def _as_stream(source: Source, *, strict: bool = True):
    """(events, nranks, path-or-None, reader-or-None) for any source.

    The events iterable is *re-iterable* for every supported source —
    a :class:`TraceReader` opens the file anew per pass and a
    :class:`LoadedTrace` holds a list — which is what makes retry and
    degraded replay possible at all.
    """
    if isinstance(source, (str, Path)):
        source = TraceReader(source, strict=strict)
    if isinstance(source, TraceReader):
        return source, source.nranks, source.path, source
    if isinstance(source, LoadedTrace):
        return source.log.events, source.nranks, None, None
    raise TypeError(f"cannot analyze {type(source).__name__}")


def _salvage_info(reader: Optional[TraceReader]) -> Optional[dict]:
    if reader is None or reader.strict:
        return None
    return reader.salvage_report()


def _feed_chunks(det, events, reader, nranks, timeline, start):
    """Feed ``det`` chunk by chunk from ``start``: the one ingest loop.

    Yields ``(events_in_chunk, cursor)`` after each chunk; the cursor is
    the chunk-boundary resume point checkpoints record.  A strict v2
    trace feeding a detector with wire ingestion (the flat core) never
    builds event objects: the detector reads the chunk's records, and
    the timeline keeps lazily formatted record tuples.  Every other
    source — v1 JSON, salvage reads, in-memory traces, the baseline
    detectors — is decoded to trace events first.
    """
    ingest_wire = getattr(det, "ingest_wire", None)
    wire = (reader.wire_stream(start)
            if reader is not None and ingest_wire is not None else None)
    if wire is not None:
        for payload, off, count in wire:
            ingest_wire(payload, off, count, wire, nranks, timeline=timeline)
            yield count, wire.cursor()
        return
    if reader is not None:
        chunks = reader.iter_chunks(start=start)
    else:
        chunks = _virtual_chunks(events, start)
    for chunk, cursor in chunks:
        # the timeline's lane projection (fed before each dispatch)
        # matches the sharded pipeline's routing, so lanes stay
        # byte-identical
        dispatch_batch(det, chunk, nranks, timeline=timeline)
        yield len(chunk), cursor


def _serial(events, nranks, detector_name, reader=None, plan=None,
            path=None, follow=False, follow_timeout_s=None):
    """Serial analysis in this process, optionally checkpointed.

    With a :class:`~repro.pipeline.checkpoint.CheckpointPlan` the chunk
    loop checkpoints every ``plan.every`` chunks and checks the resource
    guards at each boundary: hitting the deadline, the drain event or
    the memory guard checkpoints, stops, and returns a *partial* result
    with ``analyzed_fraction``; ``plan.resume`` picks up from the newest
    valid checkpoint in the directory.  Counters are added per chunk,
    so a mid-run checkpoint's registry snapshot already accounts the
    events it covers.

    ``follow=True`` tails a still-growing v2 trace: when the file ends
    without a trailer the loop checkpoints, polls with capped backoff
    (``incremental.tail_retries``), and re-enters from the last cursor
    as new chunks land — the trailer ends the run normally.  The
    deadline/drain guards keep firing while idle, and
    ``follow_timeout_s`` without progress stops the run as a *partial*,
    resumable result (``stopped="follow-timeout"``).  A prefix
    rewritten underneath the follow trips the stored-chain verification
    and aborts with :class:`TraceDivergedError`.
    """
    det = _make_detector(detector_name)
    reg = obs.active()
    t0 = time.perf_counter()
    tl = reg.timeline
    timeline = tl if tl.enabled else None
    store = None
    start = None
    resumed = []
    if plan is not None:
        store = CheckpointStore(plan.dir, "serial")
        if plan.resume:
            loaded = store.load_latest(
                expect={"detector": detector_name, "nranks": nranks})
            if loaded is not None:
                header, state = loaded
                _verify_resume_trace(header["meta"], path)
                det.restore(state["detector"])
                _ckpt_restore_registry(reg, state)
                start = state["cursor"]
                skipped_chunks = start.get("chunk") or 0
                if skipped_chunks:
                    reg.counter("incremental.chunks_skipped").add(
                        skipped_chunks)
                resumed.append({
                    "lane": "serial",
                    "from_seq": header["seq"],
                    "events_skipped": start["events_applied"],
                    "chunks_skipped": skipped_chunks,
                })

    if follow and reader is not None:
        reader.tail = True

    n = start["events_applied"] if start is not None else 0
    cursor = start
    chunks_since = 0
    stop = None
    written = 0
    c_read = reg.counter("pipeline.events.read")
    c_analyzed = reg.counter("pipeline.events.analyzed")

    def _write(cur):
        nonlocal written, chunks_since
        store.write(
            _ckpt_meta(detector_name, nranks, path, range(nranks), cur),
            _ckpt_state({"detector": det.snapshot()}, cur,
                        cur["events_applied"]))
        written += 1
        chunks_since = 0

    def _guard_stop():
        if plan.deadline_at is not None and time.time() >= plan.deadline_at:
            return "deadline"
        if _ckpt.drain_requested():
            # the serving daemon is draining (SIGTERM): stop exactly
            # like a deadline — checkpointed, partial, resumable
            return "drain"
        if plan.max_rss_mb is not None:
            # serial mode cannot recycle itself; the memory guard
            # stops like the deadline does, leaving a resumable run.
            # An unavailable RSS probe (None) disables the guard.
            rss = _ckpt.current_rss_mb()
            if rss is not None and rss > plan.max_rss_mb:
                return "memory"
        return None

    poll_s = 0.05
    last_progress = time.time()
    with reg.span("worker.analyze"):
        while True:
            progressed = False
            try:
                for count, cursor in _feed_chunks(det, events, reader,
                                                  nranks, timeline, cursor):
                    n += count
                    c_read.add(count)
                    c_analyzed.add(count)
                    progressed = True
                    if plan is None:
                        continue
                    chunks_since += 1
                    wrote = False
                    if plan.every and chunks_since >= plan.every:
                        _write(cursor)
                        wrote = True
                    stop = _guard_stop()
                    if stop is not None:
                        if not wrote:
                            _write(cursor)
                        break
            except TraceChainMismatch as exc:
                if plan is None:
                    raise
                # the prefix our detector state was built from has been
                # rewritten underneath the follow — checkpointed state
                # is untrustworthy, abort loudly
                reg.counter("incremental.divergences").add(1)
                raise TraceDivergedError(
                    f"{path}: trace does not match the analyzed prefix "
                    f"({exc})", path=str(path), chunk=exc.chunk) from exc
            if stop is not None:
                break
            if not follow or reader is None or reader.complete:
                break
            # trailerless tail: the recorder is (presumably) still
            # writing.  Checkpoint the boundary, then poll for growth.
            if progressed:
                last_progress = time.time()
                poll_s = 0.05
                if chunks_since and cursor is not None:
                    _write(cursor)
            stop = _guard_stop()
            if stop is None and follow_timeout_s is not None \
                    and time.time() - last_progress >= follow_timeout_s:
                stop = "follow-timeout"
            if stop is not None:
                if chunks_since and cursor is not None:
                    _write(cursor)
                break
            if cursor is not None and path is not None:
                try:
                    size = os.path.getsize(path)
                except OSError:
                    size = None
                if size is not None and size < cursor["pos"]:
                    reg.counter("incremental.divergences").add(1)
                    raise TraceDivergedError(
                        f"{path}: trace does not match the analyzed prefix "
                        f"(file shrank below the last cursor: {size} < "
                        f"{cursor['pos']} bytes)", path=str(path))
            reg.counter("incremental.tail_retries").add(1)
            time.sleep(poll_s)
            poll_s = min(poll_s * 2, 1.0)

    det.finalize()
    wall = time.perf_counter() - t0
    det.publish_obs()
    stats = det.node_stats()
    peak = max(stats.max_nodes_per_rank.values(), default=0)
    result = PipelineResult(
        detector=detector_name, nranks=nranks, jobs=1, dispatch="serial",
        events_total=n, wall_seconds=wall,
        verdicts=canonical_verdicts(det.reports),
        shard_stats=[ShardStats(
            shard=-1, events=n, races=len(det.reports), peak_nodes=peak,
            processed=stats.accesses_processed, reports=list(det.reports),
        )],
        salvage=_salvage_info(reader),
        forensics=canonical_forensics(det.reports),
    )
    if plan is None:
        return result
    if reader is not None:
        total = reader.total_events()
    else:
        total = len(events) if hasattr(events, "__len__") else None
    if stop is not None and total is not None and n >= total:
        stop = None  # the guard fired on the last chunk: nothing is missing
    result.partial = stop is not None
    result.analyzed_fraction = (
        ((n / total) if total else None) if result.partial else 1.0)
    result.checkpoint = {
        "dir": plan.dir,
        "every": plan.every,
        "written": written,
        "resumed": resumed,
        "quarantined": list(store.quarantined),
        "recycles": 0,
        "stopped": stop,
    }
    return result


def _mp_context():
    # imported here: serial analysis (every CLI and serve default) never
    # starts a process, and multiprocessing is a noticeable import
    import multiprocessing as mp

    try:
        return mp.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return mp.get_context("spawn")


def analyze_trace(
    source: Source,
    *,
    detector: str = "our",
    jobs: int = 1,
    dispatch: str = "queue",
    batch_size: int = 512,
    queue_depth: int = 8,
    timeout: Optional[float] = None,
    retries: int = 2,
    backoff_base: float = 0.1,
    backoff_max: float = 2.0,
    salvage: bool = False,
    recover: bool = True,
    fault_plan=None,
    ckpt_dir: Optional[Union[str, Path]] = None,
    ckpt_every: int = 4,
    deadline_s: Optional[float] = None,
    max_rss_mb: Optional[int] = None,
    resume: bool = False,
    follow: bool = False,
    follow_timeout_s: Optional[float] = None,
) -> PipelineResult:
    """Analyze a recorded trace, optionally sharded over ``jobs`` processes.

    Runs under a fresh :mod:`repro.obs` scope: per-stage spans, pipeline
    counters and the workers' merged registries land in
    ``PipelineResult.obs`` (and fold into the caller's registry on
    exit).  See :func:`_analyze_impl` for the full parameter reference.
    """
    with obs.scope() as reg:
        with reg.span("pipeline.analyze"):
            result = _analyze_impl(
                source, detector=detector, jobs=jobs, dispatch=dispatch,
                batch_size=batch_size, queue_depth=queue_depth,
                timeout=timeout, retries=retries,
                backoff_base=backoff_base, backoff_max=backoff_max,
                salvage=salvage, recover=recover, fault_plan=fault_plan,
                ckpt_dir=ckpt_dir, ckpt_every=ckpt_every,
                deadline_s=deadline_s, max_rss_mb=max_rss_mb, resume=resume,
                follow=follow, follow_timeout_s=follow_timeout_s,
            )
        if reg.enabled:
            if result.salvage is not None:
                reg.counter("pipeline.salvage.events_lost").add(
                    result.salvage.get("events_lost", 0))
                reg.counter("pipeline.salvage.chunks_quarantined").add(
                    len(result.salvage.get("quarantined_chunks", ())))
            result.obs = reg.snapshot()
            if reg.timeline.enabled:
                result._timeline_live = reg.timeline
        return result


def _analyze_impl(
    source: Source,
    *,
    detector: str = "our",
    jobs: int = 1,
    dispatch: str = "queue",
    batch_size: int = 512,
    queue_depth: int = 8,
    timeout: Optional[float] = None,
    retries: int = 2,
    backoff_base: float = 0.1,
    backoff_max: float = 2.0,
    salvage: bool = False,
    recover: bool = True,
    fault_plan=None,
    ckpt_dir: Optional[Union[str, Path]] = None,
    ckpt_every: int = 4,
    deadline_s: Optional[float] = None,
    max_rss_mb: Optional[int] = None,
    resume: bool = False,
    follow: bool = False,
    follow_timeout_s: Optional[float] = None,
) -> PipelineResult:
    """Analyze a recorded trace, optionally sharded over ``jobs`` processes.

    ``source`` may be a path (either trace format, auto-detected), an
    open :class:`TraceReader`, or an in-memory :class:`LoadedTrace`.
    ``dispatch="file"`` requires a path-backed source.

    Resilience knobs:

    * ``timeout`` — seconds without a heartbeat before a worker counts
      as stalled and is terminated (``None``: crash detection only);
    * ``retries`` — how many times a dead worker's shard-group may be
      re-run (file dispatch) before degrading to serial replay;
    * ``backoff_base`` / ``backoff_max`` — capped exponential delay
      between retry rounds;
    * ``salvage`` — read damaged traces best-effort, quarantining
      corrupt chunks (``PipelineResult.salvage`` accounts the loss);
    * ``recover=False`` — raise
      :class:`~repro.mpi.errors.WorkerCrashedError` on the first worker
      failure instead of retrying/degrading;
    * ``fault_plan`` — a :class:`~repro.faultinject.FaultPlan` forwarded
      to the workers (chaos testing only).

    Checkpoint knobs (see :mod:`repro.pipeline.checkpoint`):

    * ``ckpt_dir`` — directory for ``repro-ckpt-v1`` files; enables
      checkpointing, retry-resume, and the resource guards;
    * ``ckpt_every`` — cadence in trace chunks between checkpoints;
    * ``deadline_s`` — wall-clock budget: past it the analysis
      checkpoints and returns a *partial*, resumable result;
    * ``max_rss_mb`` — per-worker memory high-watermark: past it a
      worker checkpoints and is recycled (serial: stops like deadline);
    * ``resume`` — start from the newest valid checkpoint in
      ``ckpt_dir`` instead of from byte 0.

    Follow knobs (incremental analysis of a still-growing trace):

    * ``follow`` — tail a live-appended v2 trace: analyze chunks as
      they land, checkpoint at chunk boundaries, finish when the
      recorder writes the trailer.  Requires ``ckpt_dir``, ``jobs=1``
      and a path-backed strict v2 source; a rewritten prefix aborts
      with :class:`~repro.pipeline.checkpoint.TraceDivergedError`;
    * ``follow_timeout_s`` — stop a follow that has seen no new chunk
      for this many seconds, as a partial, resumable result.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be positive")
    if dispatch not in ("queue", "file"):
        raise ValueError(f"unknown dispatch mode {dispatch!r}")
    if retries < 0:
        raise ValueError("retries must be >= 0")
    if timeout is not None and timeout <= 0:
        raise ValueError("timeout must be positive")
    if ckpt_dir is None and (deadline_s is not None or max_rss_mb is not None
                             or resume):
        raise ValueError(
            "deadline_s/max_rss_mb/resume need a checkpoint directory")
    if ckpt_every < 1:
        raise ValueError("ckpt_every must be >= 1")
    if deadline_s is not None and deadline_s <= 0:
        raise ValueError("deadline_s must be positive")
    if follow_timeout_s is not None and follow_timeout_s <= 0:
        raise ValueError("follow_timeout_s must be positive")
    if follow_timeout_s is not None and not follow:
        raise ValueError("follow_timeout_s needs follow=True")
    if follow:
        if ckpt_dir is None:
            raise ValueError("follow needs a checkpoint directory")
        if jobs != 1:
            raise ValueError("follow requires jobs=1 (serial analysis)")
        if salvage:
            raise ValueError(
                "follow and salvage are incompatible — a quarantined chunk "
                "breaks the chain that tail resume depends on")
    plan = None
    if ckpt_dir is not None:
        plan = CheckpointPlan(
            dir=str(ckpt_dir), every=ckpt_every,
            deadline_at=(time.time() + deadline_s
                         if deadline_s is not None else None),
            max_rss_mb=max_rss_mb, resume=resume,
        )
    events, nranks, path, reader = _as_stream(source, strict=not salvage)
    if reader is not None and not reader.strict:
        salvage = True  # honor an already-open salvage reader
    if follow:
        if reader is None or path is None or reader.format != FORMAT_V2:
            raise ValueError(
                "follow needs a path-backed repro-trace-v2 source — only "
                "binary chunk framing distinguishes a torn append from "
                "corruption")
        if salvage:
            raise ValueError("follow requires a strict reader")
    jobs = max(1, min(jobs, nranks))
    if jobs == 1:
        return _serial(events, nranks, detector, reader, plan, path,
                       follow=follow, follow_timeout_s=follow_timeout_s)
    if plan is not None and dispatch != "file":
        raise ValueError(
            "checkpointing with jobs>1 requires dispatch='file' — queue "
            "batches die with their worker and cannot be replayed")
    if dispatch == "file" and path is None:
        raise ValueError("dispatch='file' needs a path-backed trace source")
    _make_detector(detector)  # validate the name before forking

    ctx = _mp_context()
    out_q = ctx.Queue()
    reg = obs.active()
    worker_shards = [list(range(w, nranks, jobs)) for w in range(jobs)]
    all_procs: List = []          # every process ever spawned, for cleanup
    in_qs: List = []
    failures_all: List[WorkerFailure] = []
    #: per-worker attempt counter — retries *and* recycles bump it, and
    #: collect_results drops any message tagged with an older attempt
    attempts: Dict[int, int] = {w: 0 for w in range(jobs)}
    partial_workers: set = set()
    retry_spawns = 0
    recycle_spawns = 0
    recycle_ckpt_written = 0
    recycle_quarantined: List[str] = []
    clean_exit = False
    t0 = time.perf_counter()

    def _spawn(target, args_tail, worker):
        proc = ctx.Process(
            target=target,
            args=(worker, worker_shards[worker], detector, nranks,
                  *args_tail),
            daemon=True,
        )
        all_procs.append(proc)
        proc.start()
        return proc

    try:
        if dispatch == "file":
            procs = {
                w: _spawn(_worker_file,
                          (path, out_q, 0, fault_plan, not salvage, plan), w)
                for w in range(jobs)
            }
            # count events once in the parent for the throughput metric;
            # v2 frame headers carry the counts, so the parent does not
            # decode the trace while the workers read it
            with reg.span("pipeline.read"):
                wire = reader.wire_stream()
                if wire is not None:
                    events_total = sum(n for _, _, n in wire)
                else:
                    events_total = sum(1 for _ in events)
            reg.counter("pipeline.events.read").add(events_total)
            with reg.span("pipeline.collect"):
                outcome = collect_results(out_q, procs, worker_shards,
                                          timeout=timeout, attempts=attempts)
            payloads = outcome.payloads
            partial_workers.update(outcome.partial_workers)
            failures = outcome.failures
            recycled = outcome.recycled
            failures_all.extend(failures)
            if failures and not recover:
                first = failures[0]
                raise WorkerCrashedError(
                    first.worker, first.shards,
                    reason=first.reason, exitcode=first.exitcode,
                )
            # Supervision loop: retried workers (with a checkpoint plan
            # they resume from their lane's newest checkpoint instead of
            # replaying from byte 0) consume the retry budget; recycled
            # workers (memory guard) are respawned for free — their exit
            # was voluntary, checkpointed progress, not a failure.
            rnd = 0
            recycles_by_worker: Dict[int, int] = {}
            exhausted: List[WorkerFailure] = []
            while failures or recycled:
                if failures and rnd >= retries:
                    break
                respawn: set = set()
                if failures:
                    rnd += 1
                    retry_spawns += len(failures)
                    reg.counter("pipeline.retries").add(len(failures))
                    with reg.span("pipeline.retry"):
                        time.sleep(backoff_delay(rnd, base=backoff_base,
                                                 cap=backoff_max))
                    respawn.update(f.worker for f in failures)
                for rec in recycled:
                    w = rec["worker"]
                    info = (rec["info"] or {}).get("ckpt") or {}
                    recycle_ckpt_written += info.get("written", 0)
                    recycle_quarantined.extend(info.get("quarantined", ()))
                    recycles_by_worker[w] = recycles_by_worker.get(w, 0) + 1
                    if recycles_by_worker[w] > _MAX_RECYCLES:
                        fail = WorkerFailure(
                            w, list(worker_shards[w]), "recycle limit",
                            attempt=attempts[w])
                        exhausted.append(fail)
                        failures_all.append(fail)
                        continue
                    recycle_spawns += 1
                    reg.counter("pipeline.ckpt.recycles").inc()
                    respawn.add(w)
                if not respawn:
                    break
                new_procs = {}
                for w in sorted(respawn):
                    attempts[w] += 1
                    new_procs[w] = _spawn(
                        _worker_file,
                        (path, out_q, attempts[w], fault_plan, not salvage,
                         plan), w)
                with reg.span("pipeline.collect"):
                    outcome = collect_results(out_q, new_procs,
                                              worker_shards,
                                              timeout=timeout,
                                              attempts=attempts)
                payloads.update(outcome.payloads)
                partial_workers.update(outcome.partial_workers)
                failures = outcome.failures
                recycled = outcome.recycled
                failures_all.extend(failures)
            # workers still recycled when the loop bailed (retry budget
            # spent on others) have no payload — degrade covers them
            for rec in recycled:
                w = rec["worker"]
                fail = WorkerFailure(w, list(worker_shards[w]),
                                     "recycle limit", attempt=attempts[w])
                failures.append(fail)
                failures_all.append(fail)
            failures = failures + exhausted
            queue_peak = [0] * jobs
        else:
            in_qs = [ctx.Queue(queue_depth) for _ in range(jobs)]
            procs = {
                w: _spawn(_worker_queue, (in_qs[w], out_q, 0, fault_plan), w)
                for w in range(jobs)
            }
            # queue depth lives in the registry (the former hand-rolled
            # queue_peak list); PipelineResult reads the gauge peaks back
            depth_gauges = [
                reg.gauge("pipeline.queue_depth", worker=str(w))
                for w in range(jobs)
            ]
            buffers: List[List[TraceEvent]] = [[] for _ in range(nranks)]
            events_total = 0
            lost: set = set()

            def _fail_worker(worker: int, reason: str) -> None:
                lost.add(worker)
                failures_all.append(WorkerFailure(
                    worker, list(worker_shards[worker]), reason,
                    exitcode=procs[worker].exitcode, attempt=0,
                ))

            def _put_bounded(worker: int, item) -> None:
                """put() that survives a dead or wedged consumer."""
                waited = 0.0
                while worker not in lost:
                    try:
                        in_qs[worker].put(item, timeout=0.2)
                        return
                    except _queue.Full:
                        if not procs[worker].is_alive():
                            _fail_worker(worker, "crashed")
                            return
                        waited += 0.2
                        if timeout is not None and waited > timeout:
                            procs[worker].terminate()
                            procs[worker].join(1.0)
                            _fail_worker(worker, "stalled")
                            return

            def ship(shard: int) -> None:
                worker = shard % jobs
                batch = buffers[shard]
                buffers[shard] = []
                if worker in lost:
                    return
                try:  # qsize is advisory; not implemented everywhere
                    depth_gauges[worker].set(in_qs[worker].qsize() + 1)
                except NotImplementedError:  # pragma: no cover
                    pass
                _put_bounded(worker, (shard, batch))

            with reg.span("pipeline.produce"):
                for event in events:
                    events_total += 1
                    for shard in shards_of(event, nranks):
                        buffers[shard].append(event)
                        if len(buffers[shard]) >= batch_size:
                            ship(shard)
                for shard in range(nranks):
                    if buffers[shard]:
                        ship(shard)
                for w in range(jobs):
                    _put_bounded(w, None)
            reg.counter("pipeline.events.read").add(events_total)
            queue_peak = [depth_gauges[w].peak for w in range(jobs)]
            live = {w: p for w, p in procs.items() if w not in lost}
            with reg.span("pipeline.collect"):
                outcome = collect_results(out_q, live, worker_shards,
                                          timeout=timeout, attempt=0)
            payloads = outcome.payloads
            failures_all.extend(outcome.failures)
            failures = [f for f in failures_all]
            if failures and not recover:
                first = failures[0]
                raise WorkerCrashedError(
                    first.worker, first.shards,
                    reason=first.reason, exitcode=first.exitcode,
                )
            # a queue worker's in-flight batches died with it: no replay
            # material for a respawn, so failures go straight to the
            # degraded path below

        degraded = False
        if failures:
            # serial in-process replay of every still-missing shard-group
            with reg.span("pipeline.degrade"):
                for failure in {f.worker: f for f in failures}.values():
                    payloads[failure.worker] = _run_shards_inline(
                        events, worker_shards[failure.worker], detector,
                        nranks,
                    )
            reg.counter("pipeline.degraded").inc()
            degraded = True
        if failures_all:
            reg.counter("pipeline.worker_failures").add(len(failures_all))
        if reg.enabled:
            # fold the worker registries into this run's scope — only
            # the *winning* attempt per worker, so a stale attempt's
            # snapshot can never double-count counters/timeline events
            for w in payloads:
                p = payloads[w]
                if not isinstance(p, dict):
                    continue  # inline degrade replay ran in this registry
                if p.get("attempt", 0) != attempts.get(w, 0):
                    continue
                if p.get("obs"):
                    reg.merge(p["obs"])
                if p.get("timeline"):
                    reg.timeline.merge(p["timeline"])
        all_stats = [
            s for w in sorted(payloads) for s in _payload_stats(payloads[w])
        ]
        clean_exit = True
    finally:
        reap_processes(all_procs)
        if not clean_exit:
            for q in in_qs:
                # don't let a dead consumer's unflushed queue buffer
                # block interpreter shutdown
                q.cancel_join_thread()

    wall = time.perf_counter() - t0
    with reg.span("pipeline.aggregate"):
        merged = canonical_verdicts(
            r for s in all_stats for r in s.reports
        )
        forensics = canonical_forensics(
            r for s in all_stats for r in s.reports
        )
    # a lane whose deadline fired on its final chunk analyzed everything:
    # nothing is missing from it, so it does not make the result partial
    partial_workers = {
        w for w in partial_workers
        if not (isinstance(payloads.get(w), dict)
                and payloads[w].get("events_applied") is not None
                and payloads[w]["events_applied"] >= events_total)
    }
    partial = bool(partial_workers)
    ckpt_summary = None
    fraction = None
    if plan is not None:
        written = recycle_ckpt_written
        resumed = []
        quarantined = list(recycle_quarantined)
        for w in sorted(payloads):
            p = payloads[w]
            if not isinstance(p, dict) or not p.get("ckpt"):
                continue
            info = p["ckpt"]
            written += info.get("written", 0)
            quarantined.extend(info.get("quarantined", ()))
            if info.get("resumed_from") is not None:
                resumed.append({
                    "lane": f"w{w}",
                    "from_seq": info["resumed_from"],
                    "events_skipped": info.get("events_skipped", 0),
                })
        ckpt_summary = {
            "dir": plan.dir,
            "every": plan.every,
            "written": written,
            "resumed": resumed,
            "quarantined": quarantined,
            "recycles": recycle_spawns,
            "stopped": "deadline" if partial else None,
        }
        if reg.enabled and written:
            reg.counter("pipeline.ckpt.written").add(written)
        if partial:
            # every lane checkpointed at or past its reported position;
            # the conservative claim is the least-advanced partial lane
            applied = [
                payloads[w].get("events_applied")
                for w in partial_workers
                if isinstance(payloads.get(w), dict)
            ]
            applied = [a for a in applied if a is not None]
            if applied and events_total:
                fraction = min(applied) / events_total
        else:
            fraction = 1.0
    return PipelineResult(
        detector=detector, nranks=nranks, jobs=jobs, dispatch=dispatch,
        events_total=events_total, wall_seconds=wall, verdicts=merged,
        forensics=forensics,
        shard_stats=sorted(all_stats, key=lambda s: s.shard),
        queue_peak=queue_peak,
        retries=retry_spawns,
        degraded=degraded,
        failed_workers=[f.to_dict() for f in failures_all],
        salvage=_salvage_info(reader),
        partial=partial,
        analyzed_fraction=fraction,
        checkpoint=ckpt_summary,
    )
