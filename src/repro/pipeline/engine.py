"""The analysis engine: one serial chunk loop, and the entry point.

``analyze_trace`` is the one entry point, and its one input is a
``repro-trace-v2`` file (a path, or a :class:`TraceReader` over one).
It replays the trace through a single detector in this process — the
CLI and every ``repro serve`` job alike: :func:`_serial` runs one chunk
loop over :func:`_feed_chunks`, the flat core reading the trace's wire
records directly (a salvage read decodes each chunk first, to
quarantine one that fails; the baseline detectors are fed decoded
trace events).  That loop is optionally checkpointed,
follows a growing trace, and stops at the deadline/drain/memory guards;
the checkpoint code (:mod:`repro.pipeline.checkpoint`) is imported only
when a checkpoint directory is in play.

Under ``PYTHONDONTWRITEBYTECODE=1`` nothing is cached as bytecode and
every process compiles all the source it imports, so the default path
keeps its imports to the code it runs.

Verdict parity: for every modelled detector the verdict set is
byte-identical (after canonical ordering) to a serial
:func:`~repro.mpi.trace_io.replay_trace` over the same trace — the
property the tier-1 parity tests pin down on the miniVite and CFD-Proxy
traces, and that the chaos suite (``tests/resilience/``) re-asserts
across checkpoint, resume, follow and salvage runs.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Union

from .. import obs
from .._fields import Fields
# the default detector ("our"), loaded with the engine: a daemon has it
# before it reports ready instead of importing it on its first job
from ..core import flatcore  # noqa: F401
from ..core.report import RaceReport
from ..detectors import detector_class
from ..intervals.access import access_to_dict
from ..mpi.errors import (CheckpointError, TraceChainMismatch,
                          TraceDivergedError)
from .format import TraceReader
from .shard import dispatch_batch

__all__ = [
    "PipelineResult",
    "ShardStats",
    "analyze_trace",
    "canonical_forensics",
    "canonical_verdicts",
]


# -- verdict canonicalization -------------------------------------------------


def _verdict_dict(report: RaceReport) -> dict:
    return {
        "rank": report.rank,
        "window": report.window,
        "stored": access_to_dict(report.stored),
        "new": access_to_dict(report.new),
        "detector": report.detector,
    }


def canonical_verdicts(reports: Iterable[RaceReport]) -> List[dict]:
    """Deduplicated race verdicts in one deterministic order.

    Detectors report races in discovery order, and a resumed run holds
    the reports of two processes.  Canonicalizing through this function
    makes 'same verdicts' a byte-for-byte comparison of the JSON dumps.
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
    verdict key; the first occurrence per key wins.
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


class ShardStats(Fields, hidden=("reports",)):
    """What the run's detector saw: its one row is ``shard`` -1."""

    _fields = ("shard", "events", "races", "peak_nodes", "processed",
               "reports")

    def __init__(self, shard: int, events: int = 0, races: int = 0,
                 peak_nodes: int = 0, processed: int = 0,
                 reports: Optional[List[RaceReport]] = None) -> None:
        self.shard = shard
        self.events = events
        self.races = races
        self.peak_nodes = peak_nodes
        self.processed = processed
        #: the detector's reports — carried, not shown
        self.reports = [] if reports is None else reports

    def to_dict(self) -> dict:
        return {
            "shard": self.shard,
            "events": self.events,
            "races": self.races,
            "peak_nodes": self.peak_nodes,
            "processed": self.processed,
        }


class PipelineResult(Fields, hidden=("_timeline_snap", "_timeline_live")):
    """Merged verdicts + metrics of one analysis run."""

    _fields = ("detector", "nranks", "events_total", "wall_seconds",
               "verdicts", "shard_stats", "salvage", "partial",
               "analyzed_fraction", "checkpoint", "obs", "forensics",
               "_timeline_snap", "_timeline_live")

    def __init__(self, detector: str, nranks: int, events_total: int,
                 wall_seconds: float, verdicts: List[dict],
                 shard_stats: List[ShardStats],
                 salvage: Optional[dict] = None, partial: bool = False,
                 analyzed_fraction: Optional[float] = None,
                 checkpoint: Optional[dict] = None,
                 obs: Optional[dict] = None,
                 forensics: Optional[List[dict]] = None,
                 _timeline_snap: Optional[dict] = None,
                 _timeline_live: Optional[object] = None) -> None:
        self.detector = detector
        self.nranks = nranks
        self.events_total = events_total
        self.wall_seconds = wall_seconds
        self.verdicts = verdicts
        self.shard_stats = shard_stats
        #: salvage accounting when the trace was read with
        #: ``strict=False``
        self.salvage = salvage
        #: True when a resource guard (deadline / drain / memory)
        #: stopped the analysis early; the verdicts cover only
        #: ``analyzed_fraction`` of the trace and the run is resumable
        #: from its checkpoint directory
        self.partial = partial
        #: fraction of the trace's events analyzed (1.0 for a completed
        #: checkpointed run, None when unknowable or checkpointing was
        #: off)
        self.analyzed_fraction = analyzed_fraction
        #: checkpoint/resume accounting: dir, cadence, files written,
        #: ``resumed`` records (from_seq, events_skipped), quarantined
        #: checkpoint files, the guard that stopped the run.  None with
        #: no --ckpt-dir
        self.checkpoint = checkpoint
        #: merged observability snapshot of this run (schema
        #: repro-obs-v1); None when metrics are disabled (REPRO_OBS=off)
        self.obs = obs
        #: one repro-forensics-v1 bundle per verdict (same canonical
        #: order as ``verdicts``); empty when obs or the timeline is
        #: disabled
        self.forensics = [] if forensics is None else forensics
        #: materialized repro-timeline-v1 snapshot (see :attr:`timeline`)
        self._timeline_snap = _timeline_snap
        #: the run's live timeline, formatted lazily on first access —
        #: analysis never pays snapshot formatting unless someone
        #: exports
        self._timeline_live = _timeline_live

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
            "events_total": self.events_total,
            "wall_seconds": round(self.wall_seconds, 6),
            "events_per_sec": round(self.events_per_sec, 1),
            "races": self.races,
            "verdicts": self.verdicts,
            "shards": [s.to_dict() for s in self.shard_stats],
            "salvage": self.salvage,
            "partial": self.partial,
            "analyzed_fraction": self.analyzed_fraction,
            "checkpoint": self.checkpoint,
            "obs": self.obs,
            "forensics": self.forensics,
            "timeline": self.timeline,
        }


# -- driver ------------------------------------------------------------------


def _salvage_info(reader: TraceReader) -> Optional[dict]:
    return None if reader.strict else reader.salvage_report()


def _feed_chunks(det, reader, timeline, start):
    """Feed ``det`` chunk by chunk from ``start``: the one ingest loop.

    Yields ``(events_in_chunk, cursor)`` after each chunk; the cursor is
    the chunk-boundary resume point checkpoints record.  A chunk is
    decoded first when the read is salvage (one that fails is
    quarantined before the detector sees any of its records) or when
    the detector has no wire ingestion (the baselines).  The flat core
    then takes the chunk's records (``ingest_wire``, the timeline
    keeping lazily formatted record tuples), and any other detector its
    decoded events (:func:`~repro.pipeline.shard.dispatch_batch`).
    """
    nranks = reader.nranks
    ingest_wire = getattr(det, "ingest_wire", None)
    decode = ingest_wire is None or not reader.strict
    wire = reader.wire_stream(start)
    for payload, off, count in wire:
        if decode:
            events = wire.decode_or_quarantine(payload, off, count)
            if events is None:
                continue
        if ingest_wire is not None:
            ingest_wire(payload, off, count, wire, nranks, timeline=timeline)
        else:
            dispatch_batch(det, events, nranks, timeline=timeline)
        yield count, wire.cursor()


def _serial(reader, detector_name, plan=None, follow=False,
            follow_timeout_s=None):
    """Serial analysis in this process, optionally checkpointed.

    With a :class:`~repro.pipeline.checkpoint.CheckpointPlan` the chunk
    loop checkpoints where :meth:`~repro.pipeline.checkpoint.
    CheckpointPlan.due` says (the amortized rule, or every
    ``plan.every`` chunks when pinned) and checks the resource guards
    at each boundary: hitting the deadline, the drain event or the
    memory guard checkpoints, stops, and returns a *partial* result
    with ``analyzed_fraction``; ``plan.resume`` picks up from the newest
    valid checkpoint in the directory.  A run that ends normally writes
    a final checkpoint at its last cursor (unless the newest one is
    already there), which is what a serve job keeps for prefix-resume.
    Counters are added per chunk, so a mid-run checkpoint's registry
    snapshot already accounts the events it covers.

    ``follow=True`` tails a still-growing trace: when the file ends
    without a trailer the loop checkpoints, polls with capped backoff
    (``incremental.tail_retries``), and re-enters from the last cursor
    as new chunks land — the trailer ends the run normally.  The
    deadline/drain guards keep firing while idle, and
    ``follow_timeout_s`` without progress stops the run as a *partial*,
    resumable result (``stopped="follow-timeout"``).  A prefix
    rewritten underneath the follow trips the stored-chain verification
    and aborts with :class:`TraceDivergedError`.
    """
    det = detector_class(detector_name)()
    nranks, path = reader.nranks, reader.path
    reg = obs.active()
    t0 = time.perf_counter()
    timeline = reg.timeline
    store = None
    start = None
    resumed = []
    if plan is not None:
        # imported with the plan (analyze_trace built it from there)
        from . import checkpoint as _ckpt

        store = _ckpt.CheckpointStore(plan.dir)
        if plan.resume:
            loaded = store.load_latest(
                expect={"detector": detector_name, "nranks": nranks})
            if loaded is not None:
                header, state = loaded
                _ckpt.verify_resume_trace(header["meta"], path)
                try:
                    det.restore(state["detector"])
                except ValueError as exc:
                    raise CheckpointError(
                        f"{store._path(header['seq'])}: cannot restore: "
                        f"{exc}") from exc
                _ckpt.restore_registry(reg, state)
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

    if follow:
        reader.tail = True

    n = start["events_applied"] if start is not None else 0
    cursor = start
    chunks_since = events_since = 0
    stop = None
    written = 0
    c_read = reg.counter("pipeline.events.read")
    c_analyzed = reg.counter("pipeline.events.analyzed")

    def _write(cur):
        nonlocal written, chunks_since, events_since
        store.write(
            _ckpt.run_meta(detector_name, nranks, path, cur),
            _ckpt.run_state({"detector": det.snapshot()}, cur))
        written += 1
        chunks_since = events_since = 0

    def _guard_stop():
        if plan.deadline_at is not None and time.time() >= plan.deadline_at:
            return "deadline"
        if _ckpt.drain_requested():
            # the serving daemon is draining (SIGTERM): stop exactly
            # like a deadline — checkpointed, partial, resumable
            return "drain"
        if plan.max_rss_mb is not None:
            # the memory guard stops like the deadline does, leaving a
            # resumable run.  An unavailable RSS probe (None) disables
            # the guard.
            rss = _ckpt.current_rss_mb()
            if rss is not None and rss > plan.max_rss_mb:
                return "memory"
        return None

    poll_s = 0.05
    last_progress = time.time()
    with reg.span("pipeline.chunks"):
        while True:
            progressed = False
            try:
                for count, cursor in _feed_chunks(det, reader, timeline,
                                                  cursor):
                    n += count
                    c_read.add(count)
                    c_analyzed.add(count)
                    progressed = True
                    if plan is None:
                        continue
                    chunks_since += 1
                    events_since += count
                    if plan.due(chunks_since, events_since,
                                det.state_rows()):
                        _write(cursor)
                    stop = _guard_stop()
                    if stop is not None:
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
            if not follow or reader.complete:
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
                break
            if cursor is not None:
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
        if chunks_since:
            # the final checkpoint: a guard stop resumes from it, and a
            # finished run keeps it as its prefix-resume point
            _write(cursor)

    det.finalize()
    wall = time.perf_counter() - t0
    det.publish_obs()
    stats = det.node_stats()
    peak = max(stats.max_nodes_per_rank.values(), default=0)
    result = PipelineResult(
        detector=detector_name, nranks=nranks, events_total=n, wall_seconds=wall,
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
    total = reader.total_events()
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
        "stopped": stop,
    }
    return result


def analyze_trace(
    source: Union[str, Path, TraceReader],
    *,
    detector: str = "our",
    salvage: bool = False,
    ckpt_dir: Optional[Union[str, Path]] = None,
    ckpt_every: Optional[int] = None,
    deadline_s: Optional[float] = None,
    max_rss_mb: Optional[int] = None,
    resume: bool = False,
    follow: bool = False,
    follow_timeout_s: Optional[float] = None,
) -> PipelineResult:
    """Analyze a recorded trace in this process.

    ``source`` is the path of a ``repro-trace-v2`` file or an open
    :class:`TraceReader`; anything else raises :class:`TypeError`.
    ``salvage`` reads a damaged trace best-effort, quarantining corrupt
    chunks (``PipelineResult.salvage`` accounts the loss).

    Runs under a fresh :mod:`repro.obs` scope: per-stage spans and
    pipeline counters land in ``PipelineResult.obs`` (and fold into the
    caller's registry on exit).

    Checkpoint knobs (see :mod:`repro.pipeline.checkpoint`):

    * ``ckpt_dir`` — directory for ``repro-ckpt-v1`` files; enables
      checkpointing and the resource guards;
    * ``ckpt_every`` — pin a cadence of that many trace chunks between
      checkpoints; ``None`` (default) places them by the amortized rule
      (:func:`~repro.pipeline.checkpoint.checkpoint_due`);
    * ``deadline_s`` — wall-clock budget: past it the analysis
      checkpoints and returns a *partial*, resumable result;
    * ``max_rss_mb`` — memory budget: current RSS above it at a chunk
      boundary stops the run like the deadline does;
    * ``resume`` — start from the newest valid checkpoint in
      ``ckpt_dir`` instead of from byte 0.

    Follow knobs (incremental analysis of a still-growing trace):

    * ``follow`` — tail a live-appended trace: analyze chunks as they
      land, checkpoint at chunk boundaries, finish when the recorder
      writes the trailer.  Requires ``ckpt_dir`` and a strict reader;
      a rewritten prefix aborts with
      :class:`~repro.mpi.errors.TraceDivergedError`;
    * ``follow_timeout_s`` — stop a follow that has seen no new chunk
      for this many seconds, as a partial, resumable result.
    """
    if ckpt_dir is None and (deadline_s is not None or max_rss_mb is not None
                             or resume):
        raise ValueError(
            "deadline_s/max_rss_mb/resume need a checkpoint directory")
    if ckpt_every is not None and ckpt_every < 1:
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
        if salvage:
            raise ValueError(
                "follow and salvage are incompatible — a quarantined chunk "
                "breaks the chain that tail resume depends on")
    plan = None
    if ckpt_dir is not None:
        from .checkpoint import CheckpointPlan

        plan = CheckpointPlan(
            dir=str(ckpt_dir), every=ckpt_every,
            deadline_at=(time.time() + deadline_s
                         if deadline_s is not None else None),
            max_rss_mb=max_rss_mb, resume=resume,
        )
    if not isinstance(source, (str, Path, TraceReader)):
        raise TypeError(f"cannot analyze {type(source).__name__}")
    with obs.scope() as reg:
        with reg.span("pipeline.analyze"):
            reader = source
            if not isinstance(reader, TraceReader):
                reader = TraceReader(source, strict=not salvage)
            if follow and not reader.strict:
                raise ValueError("follow requires a strict reader")
            result = _serial(reader, detector, plan, follow=follow,
                             follow_timeout_s=follow_timeout_s)
        if reg.enabled:
            if result.salvage is not None:
                reg.counter("pipeline.salvage.events_lost").add(
                    result.salvage.get("events_lost", 0))
                reg.counter("pipeline.salvage.chunks_quarantined").add(
                    len(result.salvage.get("quarantined_chunks", ())))
            result.obs = reg.snapshot()
            result._timeline_live = reg.timeline
        return result
