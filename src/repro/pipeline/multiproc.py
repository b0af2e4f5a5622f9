"""The multi-process engine: ``analyze_trace(..., jobs>1)``.

Imported only when an analysis asks for more than one job — serial
analysis (every CLI default and every ``repro serve`` job) never loads
it, nor the supervision layer (:mod:`repro.pipeline.resilience`) or
:mod:`multiprocessing` behind it.

The sharded pipeline:

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

``dispatch="file"`` is the alternative fan-out: every worker streams
the trace file itself and keeps only its shards' events.  The producer
then ships nothing at all — on machines where decode is cheap relative
to detector work this trades duplicated decoding for zero IPC.

The engine is *supervised* (see :mod:`repro.pipeline.resilience`):
workers heartbeat on the result queue, every wait is bounded, and a
crashed or wedged worker is detected rather than hung on.  In file
dispatch the dead worker's shard-group is re-run with capped
exponential backoff (replay is deterministic, so retried verdicts are
byte-identical); once ``retries`` is exhausted — or immediately in
queue dispatch, whose in-flight batches die with the worker — the
engine *degrades* to serial in-process replay of the missing shards
and flags the result ``degraded`` instead of failing the whole
analysis.  Workers past ``max_rss_mb`` checkpoint and are *recycled*
(respawned to resume mid-trace).

Verdict parity: for every modelled detector the merged verdict set is
byte-identical (after canonical ordering) to the serial engine over the
same trace — the property the tier-1 parity tests pin down on the
miniVite and CFD-Proxy traces, and that the chaos suite
(``tests/resilience/``) re-asserts under injected worker kills and
stalls.
"""

from __future__ import annotations

import multiprocessing as mp
import queue as _queue
import time
from typing import Dict, List, Optional, Sequence

from .. import obs
from ..detectors import detector_class
from ..mpi.errors import WorkerCrashedError
from ..mpi.trace import TraceEvent
from .engine import (
    PipelineResult,
    ShardStats,
    _salvage_info,
    canonical_forensics,
    canonical_verdicts,
)
from .format import TraceReader
from .resilience import (
    HEARTBEAT_INTERVAL,
    WorkerFailure,
    backoff_delay,
    collect_results,
    reap_processes,
)
from .shard import dispatch_batch, own_reports, shards_of

__all__ = ["analyze_sharded"]

#: backstop on memory-guard worker recycles per analysis.  The guard
#: only recycles after at least one new chunk of progress, so every
#: recycle advances the trace — this cap exists to bound pathological
#: configurations (max_rss below the interpreter's baseline), not to be
#: reached in practice.
_MAX_RECYCLES = 256


# -- worker side -------------------------------------------------------------


class _ShardGroup:
    """The shards one worker owns: a fresh detector instance per shard."""

    def __init__(self, shards: Sequence[int], detector: str, nranks: int) -> None:
        self.nranks = nranks
        make = detector_class(detector)
        self.detectors = {s: make() for s in shards}
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

    def state_rows(self) -> int:
        return sum(d.state_rows() for d in self.detectors.values())

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

    * where ``ckpt.due`` says (the amortized rule, or every
      ``ckpt.every`` chunks when pinned) it writes its lane's checkpoint;
    * past ``ckpt.deadline_at`` it checkpoints, reports a ``partial``
      payload and stops cleanly (resumable);
    * past ``ckpt.max_rss_mb`` it checkpoints and asks the engine to
      *recycle* it — respawn a fresh process that resumes mid-trace.

    A retry attempt (``attempt > 0``) or an explicit ``ckpt.resume``
    restores the newest valid checkpoint first and replays only the
    events after it, instead of re-running the shard-group from byte 0.

    A strict reader hands over wire records, each owned shard's flat
    detector taking the chunk with a lane filter; salvage reads and the
    baseline detectors are decoded and routed event by event.
    Fault-plan ticks count the events analyzed either way (per chunk on
    the wire path).
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
        # already imported by the parent that built the plan (pre-fork)
        from . import checkpoint as _ckpt

        store = _ckpt.CheckpointStore(ckpt.dir, f"w{worker_id}")
        if ckpt.resume or attempt > 0:
            loaded = store.load_latest(
                expect=_ckpt.resume_expect(detector, nranks, path))
            ckpt_info["quarantined"] = list(store.quarantined)
            if loaded is not None:
                header, state = loaded
                group.restore_state(state["group"])
                _ckpt.restore_registry(reg, state)
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
    last_at = start["events_applied"] if start is not None else 0
    stop = None
    cursor = start

    def write(cur):
        nonlocal chunks_since, last_at
        store.write(
            _ckpt.run_meta(detector, nranks, path, shards, cur),
            _ckpt.run_state({"group": group.snapshot_state()}, cur, ticks))
        ckpt_info["written"] += 1
        chunks_since = 0
        last_at = cur["events_applied"]

    with reg.span("worker.read"):
        for cursor in (wire_chunks() if wire is not None
                       else decoded_chunks()):
            if ckpt is None:
                continue
            chunks_since += 1
            if ckpt.due(chunks_since, cursor["events_applied"] - last_at,
                        group.state_rows()):
                write(cursor)
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
                if chunks_since:
                    write(cursor)
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


def _run_shards_inline(reader, shards, detector):
    """Degraded path: replay one shard-group serially, in this process.

    Replay is deterministic, so the verdicts are exactly what the dead
    worker would have reported — the analysis completes, just without
    that worker's parallelism.
    """
    nranks = reader.nranks
    group = _ShardGroup(shards, detector, nranks)
    own = set(shards)
    for event in reader:
        for shard in shards_of(event, nranks):
            if shard in own:
                group.dispatch(shard, (event,))
    return group.finish()


# -- parent side -------------------------------------------------------------


def _mp_context():
    try:
        return mp.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return mp.get_context("spawn")


def analyze_sharded(reader: TraceReader, *, detector: str, jobs: int,
                    dispatch: str, batch_size: int, queue_depth: int,
                    timeout: Optional[float], retries: int,
                    backoff_base: float, backoff_max: float, salvage: bool,
                    recover: bool, fault_plan, plan) -> PipelineResult:
    """Run one analysis over ``jobs`` worker processes.

    ``reader`` is the trace as :func:`repro.pipeline.engine.analyze_trace`
    opened it, ``plan`` its
    :class:`~repro.pipeline.checkpoint.CheckpointPlan` (or None); the
    other parameters are ``analyze_trace``'s, already validated.
    """
    if plan is not None and dispatch != "file":
        raise ValueError(
            "checkpointing with jobs>1 requires dispatch='file' — queue "
            "batches die with their worker and cannot be replayed")
    detector_class(detector)  # validate the name before forking
    nranks, path = reader.nranks, reader.path

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
                    events_total = sum(1 for _ in reader)
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
                for event in reader:
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
                        reader, worker_shards[failure.worker], detector)
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
