"""The job scheduler: bounded queue, worker threads, crash recovery.

The scheduler owns the daemon's job table and the policy around it:

* **Admission control.**  The queue is bounded (``max_queue`` jobs
  queued+running) and each tenant has a concurrent-job cap; past either
  limit :meth:`submit` raises :class:`AdmissionError` and the HTTP layer
  answers 429 with a ``Retry-After`` — overload sheds load at the door
  instead of growing an unbounded backlog.
* **Durability.**  Every transition is journaled (fsync'd) *before*
  the scheduler acts on it, so the on-disk journal is never behind the
  in-memory state it would need to reconstruct.
* **Checkpointed execution.**  Each job runs a serial checkpointed
  analysis (``analyze_trace(..., ckpt_dir=<per-job dir>, resume=True)``)
  in a worker thread.  The per-job checkpoint directory is keyed by
  trace content hash + detector, so two jobs can never clobber each
  other's checkpoint generations, and a *restarted* job (crash recovery,
  retry) resumes from its newest checkpoint cursor — deterministic
  replay makes the final verdicts byte-identical either way.
* **Retry and poison quarantine.**  Unexpected analysis failures retry
  with capped exponential backoff; a job that keeps failing — or keeps
  taking the daemon down with it (attempts exhausted at recovery) — is
  *quarantined*: parked terminally, never silently dropped, never
  allowed to crash-loop the service.
* **Graceful drain.**  :meth:`drain` stops the workers and (through the
  engine's drain hook) makes every in-flight analysis checkpoint and
  stop at its next chunk boundary; the interrupted jobs are journaled
  back to ``queued`` and complete after the next start.
"""

from __future__ import annotations

import os
import queue as _queue
import shutil
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Union

from .. import obs
from .._fields import Fields
from ..mpi.errors import CheckpointError, TraceFormatError
from ..pipeline import checkpoint as _ckpt
from ..pipeline.engine import analyze_trace
from ..pipeline.chain import compare_chain, trace_chain
from .cache import VerdictCache, trace_sha256
from .journal import JobJournal

__all__ = ["AdmissionError", "Job", "Scheduler", "backoff_delay",
           "job_ckpt_dir"]

#: job states.  queued/running are *live*; the rest are terminal.
LIVE_STATES = ("queued", "running")
TERMINAL_STATES = ("done", "failed", "quarantined")

#: exception types whose failure is deterministic — retrying the same
#: trace bytes can only fail the same way, so the job fails immediately
_NO_RETRY = (TraceFormatError, CheckpointError, ValueError)


def backoff_delay(attempt: int, *, base: float, cap: float) -> float:
    """Capped exponential backoff before retry ``attempt`` (>= 1)."""
    return min(base * (2 ** (attempt - 1)), cap)


class AdmissionError(Exception):
    """The daemon refused a submission (backpressure, not failure)."""

    def __init__(self, reason: str, retry_after_s: float = 1.0) -> None:
        super().__init__(reason)
        self.reason = reason
        self.retry_after_s = retry_after_s


def job_ckpt_dir(base: Union[str, Path], sha: str, detector: str) -> Path:
    """Per-job checkpoint directory, keyed by trace content hash.

    Two jobs pointed at one shared checkpoint base must never clobber
    each other's ``serial-*.ckpt`` generations; keying the subdirectory
    by content hash + detector isolates them (and lets an *identical*
    resubmission reuse the same resumable state, which is safe because
    identical inputs checkpoint identical bytes).
    """
    return Path(base) / f"{sha[:16]}-{detector}"


class Job(Fields):
    """One submitted analysis and everything the journal knows about it.

    ``resumed_from`` and ``prefix_chunks`` are its incremental lineage:
    the already-analyzed trace whose chunk chain this trace extends,
    and how many chunks that prefix covers — journaled at submit so
    crash recovery re-runs the job with the same prefix-resume plan it
    was admitted with.  ``resumed`` is the resume accounting of the
    winning attempt (lane/from_seq/skipped).
    """

    _fields = ("id", "tenant", "detector", "trace_sha", "trace_path",
               "state", "attempts", "submitted_at", "updated_at", "reason",
               "cached", "races", "events", "wall_seconds", "resumed_from",
               "prefix_chunks", "resumed")

    def __init__(self, id: str, tenant: str, detector: str, trace_sha: str,
                 trace_path: str, state: str = "queued", attempts: int = 0,
                 submitted_at: float = 0.0, updated_at: float = 0.0,
                 reason: Optional[str] = None, cached: bool = False,
                 races: Optional[int] = None, events: Optional[int] = None,
                 wall_seconds: Optional[float] = None,
                 resumed_from: Optional[str] = None, prefix_chunks: int = 0,
                 resumed: Optional[List[dict]] = None) -> None:
        self.id = id
        self.tenant = tenant
        self.detector = detector
        self.trace_sha = trace_sha
        self.trace_path = trace_path
        self.state = state
        self.attempts = attempts
        self.submitted_at = submitted_at
        self.updated_at = updated_at
        self.reason = reason
        self.cached = cached
        self.races = races
        self.events = events
        self.wall_seconds = wall_seconds
        self.resumed_from = resumed_from
        self.prefix_chunks = prefix_chunks
        self.resumed = [] if resumed is None else resumed

    def to_dict(self) -> dict:
        return {
            "id": self.id, "tenant": self.tenant, "detector": self.detector,
            "trace_sha": self.trace_sha, "trace_path": self.trace_path,
            "state": self.state, "attempts": self.attempts,
            "submitted_at": self.submitted_at, "updated_at": self.updated_at,
            "reason": self.reason, "cached": self.cached,
            "races": self.races, "events": self.events,
            "wall_seconds": self.wall_seconds,
            "resumed_from": self.resumed_from,
            "prefix_chunks": self.prefix_chunks, "resumed": self.resumed,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Job":
        return cls(**{k: d.get(k, None) for k in (
            "id", "tenant", "detector", "trace_sha", "trace_path", "state",
            "attempts", "submitted_at", "updated_at", "reason", "cached",
            "races", "events", "wall_seconds", "resumed_from")},
            prefix_chunks=int(d.get("prefix_chunks") or 0),
            resumed=list(d.get("resumed") or ()))


class Scheduler:
    """Durable multi-tenant job execution over a thread worker pool."""

    def __init__(
        self,
        state_dir: Union[str, Path],
        *,
        workers: int = 2,
        max_queue: int = 16,
        tenant_cap: int = 4,
        retries: int = 2,
        deadline_s: Optional[float] = None,
        max_rss_mb: Optional[int] = None,
        ckpt_every: Optional[int] = None,
        backoff_base: float = 0.05,
        backoff_max: float = 2.0,
        compact_every: int = 512,
        cache_max: Optional[int] = 256,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if tenant_cap < 1:
            raise ValueError("tenant_cap must be >= 1")
        if ckpt_every is not None and ckpt_every < 1:
            raise ValueError("ckpt_every must be >= 1")
        self.state_dir = Path(state_dir)
        self.traces_dir = self.state_dir / "traces"
        self.ckpt_base = self.state_dir / "ckpt"
        for d in (self.state_dir, self.traces_dir, self.ckpt_base):
            d.mkdir(parents=True, exist_ok=True)
        self.journal = JobJournal(self.state_dir / "jobs.journal")
        self.cache = VerdictCache(self.state_dir / "cache",
                                  max_entries=cache_max,
                                  on_evict=self._cache_evicted)
        self.workers = workers
        self.max_queue = max_queue
        self.tenant_cap = tenant_cap
        self.retries = retries
        self.deadline_s = deadline_s
        self.max_rss_mb = max_rss_mb
        self.ckpt_every = ckpt_every
        self.backoff_base = backoff_base
        self.backoff_max = backoff_max
        self.compact_every = compact_every

        self.jobs: Dict[str, Job] = {}
        self._seq = 0
        self._lock = threading.RLock()
        self._queue: "_queue.Queue[Optional[str]]" = _queue.Queue()
        self._threads: List[threading.Thread] = []
        self.drain_event = threading.Event()
        #: the registry the daemon's own counters land in (worker-thread
        #: analysis scopes are thread-local and merge back in here)
        self.registry = obs.active()

    # -- counters (thread-shared registry → guard with the lock) -------------

    def _count(self, name: str, n: int = 1, **labels: str) -> None:
        if self.registry.enabled:
            with self._lock:
                self.registry.counter(name, **labels).add(n)

    def _cache_evicted(self, sha: str, detector: str) -> None:
        """LRU eviction callback: drop the entry's checkpoint state too.

        An evicted verdict can no longer be a prefix-resume ancestor
        (its chain sidecar is gone), so its retained final checkpoint
        is dead weight — delete the whole per-job checkpoint directory.
        """
        self._count("serve.cache.evicted")
        shutil.rmtree(job_ckpt_dir(self.ckpt_base, sha, detector),
                      ignore_errors=True)

    def _set_gauges(self) -> None:
        if not self.registry.enabled:
            return
        with self._lock:
            states = [j.state for j in self.jobs.values()]
            self.registry.gauge("serve.jobs.queued").set(
                states.count("queued"))
            self.registry.gauge("serve.jobs.running").set(
                states.count("running"))

    # -- journal helpers ------------------------------------------------------

    def _journal_submit(self, job: Job) -> None:
        self.journal.append({"op": "submit", "job": job.to_dict()})

    def _journal_state(self, job: Job) -> None:
        self.journal.append({"op": "state", "job": job.to_dict()})
        self._count("serve.journal.records")
        if self.journal.appended >= self.compact_every:
            self._compact()

    def _compact(self) -> None:
        records = [{"op": "job", "job": j.to_dict()}
                   for _, j in sorted(self.jobs.items())]
        self.journal.compact(records)
        self._count("serve.journal.compactions")

    def _transition(self, job: Job, state: str, *, reason: Optional[str] = None,
                    **fields) -> None:
        with self._lock:
            job.state = state
            job.reason = reason
            job.updated_at = time.time()
            for k, v in fields.items():
                setattr(job, k, v)
            self._journal_state(job)
        self._set_gauges()

    # -- recovery -------------------------------------------------------------

    def recover(self) -> dict:
        """Replay the journal into the job table; requeue interrupted jobs.

        Jobs found *running* were in flight when the daemon died: their
        checkpoints are on disk, so they go back on the queue and resume
        from their newest checkpoint cursor.  A job whose attempts were
        already exhausted (it kept dying mid-run) is quarantined instead
        — a poison job must not crash-loop the daemon.
        """
        with self._lock:
            records = self.journal.replay()
            for note in self.journal.quarantined:
                self._count("serve.journal.quarantined")
            for rec in records:
                op = rec.get("op")
                if op in ("submit", "job", "state") and "job" in rec:
                    job = Job.from_dict(rec["job"])
                    self.jobs[job.id] = job
            for job in self.jobs.values():
                digits = job.id.lstrip("j")
                if digits.isdigit():
                    self._seq = max(self._seq, int(digits))
            requeued = quarantined = 0
            for jid in sorted(self.jobs):
                job = self.jobs[jid]
                if job.state not in LIVE_STATES:
                    continue
                if job.attempts > self.retries:
                    self._transition(job, "quarantined", reason="poison")
                    self._count("serve.jobs.quarantined")
                    quarantined += 1
                else:
                    if job.state == "running":
                        self._transition(job, "queued", reason="recovered")
                    self._queue.put(job.id)
                    requeued += 1
        self._set_gauges()
        return {"jobs": len(self.jobs), "requeued": requeued,
                "quarantined": quarantined,
                "journal_quarantined": list(self.journal.quarantined)}

    # -- admission ------------------------------------------------------------

    def _live_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {"": 0}
        for job in self.jobs.values():
            if job.state in LIVE_STATES:
                counts[""] += 1
                counts[job.tenant] = counts.get(job.tenant, 0) + 1
        return counts

    def submit_file(self, spooled: Union[str, Path], *, tenant: str = "default",
                    detector: str = "our",
                    sha: Optional[str] = None) -> Job:
        """Admit one spooled trace upload as a job.

        ``spooled`` must live on the same filesystem as the scheduler's
        spool directory (the HTTP layer writes uploads there); it is
        renamed into content-addressed storage.  ``sha`` is its sha256
        when the caller hashed it while spooling; otherwise the file is
        hashed here.  Raises :class:`AdmissionError` on backpressure —
        *after* which the spooled file is still the caller's to clean up.
        """
        spooled = Path(spooled)
        if sha is None:
            sha = trace_sha256(spooled)
        with self._lock:
            # an identical trace+detector already analyzed? serve the
            # verdicts from the cache without running anything
            cached = self.cache.get(sha, detector)
            # ... or currently live? attach to it instead of double-running
            if cached is None:
                for job in self.jobs.values():
                    if (job.state in LIVE_STATES and job.trace_sha == sha
                            and job.detector == detector):
                        self._count("serve.jobs.deduped")
                        spooled.unlink(missing_ok=True)
                        return job
                counts = self._live_counts()
                if counts[""] >= self.max_queue:
                    self._count("serve.admission.rejected",
                                reason="queue_full")
                    raise AdmissionError("queue_full")
                if counts.get(tenant, 0) >= self.tenant_cap:
                    self._count("serve.admission.rejected",
                                reason="tenant_cap")
                    raise AdmissionError("tenant_cap")
            stored = self.traces_dir / f"{sha}.trace"
            if not stored.exists():
                os.replace(spooled, stored)
            else:
                spooled.unlink(missing_ok=True)
            resumed_from, prefix_chunks = (None, 0)
            if cached is None:
                resumed_from, prefix_chunks = self._find_prefix_ancestor(
                    stored, detector, sha)
            self._seq += 1
            now = time.time()
            job = Job(
                id=f"j{self._seq:06d}", tenant=tenant, detector=detector,
                trace_sha=sha, trace_path=str(stored),
                submitted_at=now, updated_at=now,
                resumed_from=resumed_from, prefix_chunks=prefix_chunks,
            )
            self.jobs[job.id] = job
            self._journal_submit(job)
            self._count("serve.jobs.submitted", tenant=tenant)
            if cached is not None:
                self._count("serve.cache.hits")
                job.cached = True
                self._transition(job, "done", races=len(cached["verdicts"]),
                                 events=cached.get("events_total"),
                                 wall_seconds=0.0)
                return job
            self._count("serve.cache.misses")
            self._queue.put(job.id)
        self._set_gauges()
        return job

    def _find_prefix_ancestor(self, stored: Path, detector: str,
                              sha: str) -> tuple:
        """Longest already-analyzed trace this upload append-only extends.

        The verdict cache keeps a chunk-chain sidecar for every finished
        job; comparing the new trace's chain against each sidecar is one
        O(min(len)) hex compare — ``relation == "extension"`` proves the
        new bytes are the old trace plus appended chunks, so its final
        checkpoint cursor is a valid starting point.  Candidates that
        share a prefix but then *diverge* (a rewritten tail resubmitted)
        are counted and skipped: resuming over them would analyze the
        wrong history.
        """
        try:
            new_chain = trace_chain(stored)
        except (TraceFormatError, OSError):
            return None, 0  # an unreadable trace has no chain index
        if not new_chain.get("chunks"):
            return None, 0
        best_sha, best_common = None, 0
        for anc_sha, anc_chain in self.cache.iter_chains(detector):
            if anc_sha == sha:
                continue
            rel = compare_chain(anc_chain, new_chain)
            if rel["relation"] == "extension" and rel["common"] > best_common:
                best_sha, best_common = anc_sha, rel["common"]
            elif rel["relation"] == "diverged" and rel["common"] >= 1:
                self._count("incremental.divergences")
        if best_sha is not None:
            self._count("incremental.prefix_hits")
        return best_sha, best_common

    def submit_bytes(self, data: bytes, **kwargs) -> Job:
        """Convenience for tests/benchmarks: spool ``data`` and submit."""
        tmp = self.traces_dir / f".upload-{threading.get_ident()}.tmp"
        tmp.write_bytes(data)
        try:
            return self.submit_file(tmp, **kwargs)
        finally:
            tmp.unlink(missing_ok=True)

    # -- execution ------------------------------------------------------------

    def start(self) -> None:
        _ckpt.install_drain_event(self.drain_event)
        for i in range(self.workers):
            t = threading.Thread(target=self._worker_loop,
                                 name=f"serve-worker-{i}", daemon=True)
            t.start()
            self._threads.append(t)

    def _worker_loop(self) -> None:
        while not self.drain_event.is_set():
            try:
                jid = self._queue.get(timeout=0.2)
            except _queue.Empty:
                continue
            if jid is None:
                continue
            with self._lock:
                job = self.jobs.get(jid)
                if job is None or job.state not in LIVE_STATES:
                    continue
            self._run(job)

    def _run(self, job: Job) -> None:
        self._transition(job, "running", attempts=job.attempts + 1)
        self._count("serve.jobs.started")
        ckpt_dir = job_ckpt_dir(self.ckpt_base, job.trace_sha, job.detector)
        if job.resumed_from and self._seed_ckpt_dir(job, ckpt_dir):
            print(f"repro serve: {job.id} prefix-resume from "
                  f"{job.resumed_from[:16]} "
                  f"({job.prefix_chunks} chunk(s) already analyzed)",
                  flush=True)
        t0 = time.perf_counter()
        try:
            result = self._analyze(job, ckpt_dir)
        except _NO_RETRY as exc:
            # deterministic failure: the same bytes would fail the same
            # way on every retry, so fail the job now
            self._transition(job, "failed",
                             reason=f"{type(exc).__name__}: {exc}")
            self._count("serve.jobs.failed", reason="bad-input")
            return
        except Exception as exc:  # noqa: BLE001 - the retry boundary
            self._retry_or_quarantine(
                job, f"{type(exc).__name__}: {exc}")
            return
        wall = time.perf_counter() - t0
        if self.registry.enabled:
            with self._lock:
                if result.obs:
                    self.registry.merge(result.obs)
                self.registry.histogram("serve.job.wall_ms").observe(
                    int(wall * 1000))
        if result.partial:
            stopped = (result.checkpoint or {}).get("stopped")
            if stopped == "drain":
                # drain interrupted it mid-trace: checkpointed, so it
                # goes back on the queue and resumes after restart
                self._transition(job, "queued", reason="drained")
                self._count("serve.jobs.drained")
            else:
                self._transition(job, "failed", reason=f"guard:{stopped}")
                self._count("serve.jobs.failed", reason=str(stopped))
            return
        self.cache.put(job.trace_sha, job.detector, result.to_dict())
        # index the trace as a prefix-resume ancestor *before* the job
        # is observably done: a client that resubmits a grown copy the
        # moment it sees "done" must find the chain sidecar in place
        self._retain_incremental_state(job, ckpt_dir)
        resumed = (result.checkpoint or {}).get("resumed") or []
        self._transition(job, "done", races=result.races,
                         events=result.events_total, wall_seconds=wall,
                         resumed=list(resumed))
        self._count("serve.jobs.completed")

    def _analyze(self, job: Job, ckpt_dir: Path):
        """The job's checkpointed analysis, resumed when it can be.

        A checkpoint the run cannot use — one that fails to restore,
        belongs to another analysis or no longer matches the trace's
        prefix (:class:`CheckpointError`) — is discarded and the trace
        analyzed once from the start, whether the checkpoint was seeded
        from an ancestor or is the job's own.  Trace errors still fail
        the job, and so does a second :class:`CheckpointError`.
        """
        def run():
            # fold the analysis scope into a discarded one, not into
            # the worker thread's registry: that is the process
            # default, ``self.registry`` in ``repro serve``, and
            # :meth:`_run` folds ``result.obs`` into it under the lock
            with obs.scope(merge=False):
                return analyze_trace(
                    job.trace_path, detector=job.detector,
                    ckpt_dir=ckpt_dir, ckpt_every=self.ckpt_every,
                    deadline_s=self.deadline_s, max_rss_mb=self.max_rss_mb,
                    resume=True,
                )

        resuming = any(ckpt_dir.glob("serial-*.ckpt"))
        try:
            return run()
        except CheckpointError as exc:
            if not resuming:
                raise
            print(f"repro serve: {job.id} discarded its checkpoint "
                  f"({exc}); analyzing from the start", flush=True)
        shutil.rmtree(ckpt_dir, ignore_errors=True)
        self._count("incremental.resume_discarded")
        return run()

    def _seed_ckpt_dir(self, job: Job, ckpt_dir: Path) -> bool:
        """Copy the prefix ancestor's final checkpoint into this job's dir.

        Idempotent and crash-safe: if the job's own directory already
        holds serial checkpoints (an interrupted earlier attempt of this
        very job), its own — strictly further along — cursor wins and no
        seeding happens.  Copies go through tmp + ``os.replace`` so a
        crash mid-seed never leaves a torn ``.ckpt`` for resume to trip
        over.  Returns True when a resumable cursor is in place.
        """
        try:
            if any(ckpt_dir.glob("serial-*.ckpt")):
                return True
            anc_dir = job_ckpt_dir(self.ckpt_base, job.resumed_from,
                                   job.detector)
            seeds = sorted(anc_dir.glob("serial-*.ckpt"))
            if not seeds:
                return False  # ancestor state evicted since admission
            ckpt_dir.mkdir(parents=True, exist_ok=True)
            for src in seeds:
                tmp = ckpt_dir / (src.name + ".tmp")
                shutil.copyfile(src, tmp)
                os.replace(tmp, ckpt_dir / src.name)
            return True
        except OSError:
            return False  # seeding is an optimization; never fail the job

    def _retain_incremental_state(self, job: Job, ckpt_dir: Path) -> None:
        """After success: index the trace's chain, keep one checkpoint.

        A finished trace becomes a prefix-resume ancestor for future
        uploads, which needs exactly two artifacts: its chunk chain in
        the cache sidecar and its newest checkpoint cursor.  Everything
        else (older checkpoint generations) is pruned; a trace whose
        chain cannot be computed (empty, or unreadable since the run)
        drops the whole checkpoint directory.
        """
        try:
            chain = trace_chain(job.trace_path)
        except (TraceFormatError, OSError):
            chain = None
        if chain and chain.get("chunks") and chain.get("complete"):
            try:
                self.cache.put_chain(job.trace_sha, job.detector, chain)
                _ckpt.CheckpointStore(ckpt_dir).prune(keep=1)
            except OSError:
                pass  # indexing is an optimization; the job is done
        else:
            shutil.rmtree(ckpt_dir, ignore_errors=True)

    def _retry_or_quarantine(self, job: Job, why: str) -> None:
        if job.attempts > self.retries:
            self._transition(job, "quarantined", reason=f"poison: {why}")
            self._count("serve.jobs.quarantined")
            return
        self._count("serve.jobs.retried")
        delay = backoff_delay(job.attempts, base=self.backoff_base,
                              cap=self.backoff_max)
        self._transition(job, "queued", reason=f"retry: {why}")
        if self.drain_event.wait(delay):
            return  # draining: the job stays queued for the next start
        with self._lock:
            self._queue.put(job.id)

    # -- drain ----------------------------------------------------------------

    def drain(self, timeout: float = 10.0) -> List[str]:
        """Stop accepting work, checkpoint in-flight jobs, stop workers.

        Returns the ids of jobs still live afterwards (queued for the
        next start) — with a functioning engine drain hook that list is
        exactly the interrupted/never-started jobs, all resumable.
        """
        self.drain_event.set()
        deadline = time.monotonic() + timeout
        for t in self._threads:
            t.join(max(0.0, deadline - time.monotonic()))
        _ckpt.install_drain_event(None)
        with self._lock:
            live = [j.id for j in self.jobs.values()
                    if j.state in LIVE_STATES]
            # a worker thread that outlived the join timeout may still
            # be mid-analysis; its journal state stays "running" and
            # recovery requeues it — durably correct either way
            self._compact()
            self.journal.close()
        return sorted(live)

    # -- introspection --------------------------------------------------------

    def list_jobs(self) -> List[dict]:
        with self._lock:
            return [self.jobs[j].to_dict() for j in sorted(self.jobs)]

    def get_job(self, jid: str) -> Optional[dict]:
        with self._lock:
            job = self.jobs.get(jid)
            return job.to_dict() if job is not None else None

    def get_result(self, jid: str) -> Optional[dict]:
        return self._done_entry(jid, self.cache.get)

    def get_result_bytes(self, jid: str) -> Optional[bytes]:
        """A done job's cache entry as stored (compact, key-sorted JSON)."""
        return self._done_entry(jid, self.cache.get_bytes)

    def _done_entry(self, jid: str, read):
        with self._lock:
            job = self.jobs.get(jid)
            if job is None or job.state != "done":
                return None
            return read(job.trace_sha, job.detector)
