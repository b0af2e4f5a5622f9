"""Serve-side incremental re-analysis: prefix-resume, eviction, chaos.

A resubmitted trace that is an append-only extension of an
already-analyzed one must resume from the ancestor's retained
checkpoint cursor instead of re-analyzing the shared prefix — with
verdicts byte-identical to a from-scratch run, lineage journaled for
crash recovery, and rewritten history refused as an ancestor.  The
verdict cache that anchors all of this is bounded: LRU eviction drops
the entry, its chain sidecar, and its retained checkpoint state
together.
"""

import json
import shutil
import time

from repro.faultinject import extend_trace, rewrite_prefix
from repro.pipeline import CheckpointStore, analyze_trace, trace_chain
from repro.serve import Scheduler, poll_job, request, submit_trace
from repro.serve.scheduler import job_ckpt_dir


def _wait(sched, jid, *, states=("done", "failed", "quarantined"),
          timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        job = sched.get_job(jid)
        if job and job["state"] in states:
            return job
        time.sleep(0.02)
    raise AssertionError(
        f"job {jid} never reached {states}: {sched.get_job(jid)}")


def _counters(sched):
    return sched.registry.snapshot()["counters"]


def _canon(verdicts):
    return json.dumps(verdicts, sort_keys=True)


# -- prefix-resume ------------------------------------------------------------

def test_grown_trace_resumes_from_prefix(make_scheduler, chaos_trace,
                                         tmp_path):
    work = tmp_path / "grow.trace"
    shutil.copyfile(chaos_trace, work)
    old_chunks = len(trace_chain(work)["chunks"])

    state = tmp_path / "state"
    sched = make_scheduler(state, workers=1)
    sched.start()
    first = _wait(sched, sched.submit_bytes(work.read_bytes()).id)
    assert first["state"] == "done" and first["resumed_from"] is None

    grown = extend_trace(work, fraction=0.10)
    assert grown["chunks_after"] > grown["chunks_before"]
    job = sched.submit_bytes(work.read_bytes())
    assert job.resumed_from == first["trace_sha"]
    assert job.prefix_chunks == old_chunks
    done = _wait(sched, job.id)
    assert done["state"] == "done" and not done["cached"]
    # the winning attempt really resumed mid-trace
    assert done["resumed"] and done["resumed"][0]["chunks_skipped"] > 0

    counters = _counters(sched)
    assert counters["incremental.prefix_hits"] == 1
    assert counters["incremental.chunks_skipped"] >= old_chunks

    # byte-identical to a direct, daemon-free analysis of the grown file
    oracle = analyze_trace(work, detector="our").to_dict()
    result = sched.get_result(job.id)
    assert _canon(result["verdicts"]) == _canon(oracle["verdicts"])
    assert result["forensics"] == oracle["forensics"]
    assert result["events_total"] == oracle["events_total"]


def test_done_job_is_already_a_prefix_ancestor(make_scheduler, chaos_trace,
                                              tmp_path, monkeypatch):
    """A job is indexed as an ancestor before it is observably done.

    A slow chain index used to open a window where a client saw
    ``done``, resubmitted the grown trace, and got a from-scratch
    analysis because the chain sidecar was not written yet.
    """
    import repro.serve.scheduler as scheduler

    real_chain = scheduler.trace_chain

    def slow_chain(*args, **kwargs):
        time.sleep(0.3)
        return real_chain(*args, **kwargs)

    monkeypatch.setattr(scheduler, "trace_chain", slow_chain)
    work = tmp_path / "grow.trace"
    shutil.copyfile(chaos_trace, work)
    sched = make_scheduler(tmp_path / "state", workers=1)
    sched.start()
    first = _wait(sched, sched.submit_bytes(work.read_bytes()).id)
    assert first["state"] == "done"
    assert sched.cache.get_chain(first["trace_sha"], "our") is not None
    extend_trace(work, fraction=0.10)
    job = sched.submit_bytes(work.read_bytes())
    assert job.resumed_from == first["trace_sha"]
    assert _wait(sched, job.id)["state"] == "done"


def test_prefix_plan_is_journaled_for_recovery(make_scheduler, chaos_trace,
                                              tmp_path):
    """Lineage survives a scheduler restart: recovery re-reads the plan."""
    work = tmp_path / "grow.trace"
    shutil.copyfile(chaos_trace, work)
    state = tmp_path / "state"
    sched = make_scheduler(state, workers=1)
    sched.start()
    first = _wait(sched, sched.submit_bytes(work.read_bytes()).id)
    extend_trace(work, fraction=0.10)
    job = sched.submit_bytes(work.read_bytes())
    _wait(sched, job.id)
    sched.drain(timeout=10.0)

    fresh = Scheduler(state, workers=1)
    fresh.recover()
    replayed = fresh.get_job(job.id)
    assert replayed["resumed_from"] == first["trace_sha"]
    assert replayed["prefix_chunks"] > 0


def test_rewritten_history_is_not_an_ancestor(make_scheduler, chaos_trace,
                                              tmp_path):
    """Self-consistently rewritten bytes diverge: full re-analysis."""
    work = tmp_path / "mut.trace"
    shutil.copyfile(chaos_trace, work)
    sched = make_scheduler(workers=1)
    sched.start()
    _wait(sched, sched.submit_bytes(work.read_bytes()).id)

    rewrite_prefix(work, chunk=2, seed=3)
    job = sched.submit_bytes(work.read_bytes())
    assert job.resumed_from is None and job.prefix_chunks == 0
    done = _wait(sched, job.id)
    assert done["state"] == "done"
    assert not done["resumed"], "diverged history must not resume"

    counters = _counters(sched)
    assert counters["incremental.divergences"] >= 1
    assert "incremental.prefix_hits" not in counters

    # the fresh run is still correct for the file as it now is
    oracle = analyze_trace(work, detector="our").to_dict()
    assert _canon(sched.get_result(job.id)["verdicts"]) == \
        _canon(oracle["verdicts"])


def _resume_past_rewritten_ancestor(make_scheduler, chaos_trace, tmp_path,
                                    rewrite):
    """Analyze the trace, ``rewrite`` its retained checkpoint state in
    place, grow the trace 10% and resubmit: the job must discard the
    checkpoint and analyze from the start, equal to direct analysis."""
    work = tmp_path / "grow.trace"
    shutil.copyfile(chaos_trace, work)
    sched = make_scheduler(workers=1)
    sched.start()
    first = _wait(sched, sched.submit_bytes(work.read_bytes()).id)
    assert first["state"] == "done"

    store = CheckpointStore(
        job_ckpt_dir(sched.ckpt_base, first["trace_sha"], "our"))
    (old,) = store.dir.glob("serial-*.ckpt")
    header, state = store.load_latest()
    rewrite(state)
    old.unlink()
    store.write(header["meta"], state)

    extend_trace(work, fraction=0.10)
    job = sched.submit_bytes(work.read_bytes())
    assert job.resumed_from == first["trace_sha"]
    done = _wait(sched, job.id)
    assert done["state"] == "done", done
    assert done["resumed"] == []
    assert _counters(sched)["incremental.resume_discarded"] == 1

    oracle = analyze_trace(work, detector="our").to_dict()
    result = sched.get_result(job.id)
    assert _canon(result["verdicts"]) == _canon(oracle["verdicts"])
    assert result["forensics"] == oracle["forensics"]
    assert result["events_total"] == oracle["events_total"]


def test_unrestorable_ancestor_checkpoint_falls_back_to_full_run(
        make_scheduler, chaos_trace, tmp_path):
    """A seeded checkpoint the detector refuses is discarded, not fatal.

    The ancestor's retained checkpoint is rewritten to carry another
    detector class (what a daemon running the object core left behind).
    The grown trace's job must drop it and analyze from the start.
    """
    def other_class(state):
        state["detector"]["class"] = "OurDetector"

    _resume_past_rewritten_ancestor(make_scheduler, chaos_trace, tmp_path,
                                    other_class)


def test_avl_store_layout_ancestor_falls_back_to_full_run(
        make_scheduler, chaos_trace, tmp_path):
    """An ancestor checkpoint holding a store in the AVL store's
    ``repro-flat-bst-v3`` layout (a window still open when a daemon
    before the block store wrote it) is discarded the same way."""
    def avl_store(state):
        state["detector"]["state"]["_stores"][(0, 0)] = {
            "layout": "repro-flat-bst-v3"}

    _resume_past_rewritten_ancestor(make_scheduler, chaos_trace, tmp_path,
                                    avl_store)


# -- bounded cache ------------------------------------------------------------

def test_cache_evicts_lru_entry_sidecar_and_ckpt(make_scheduler, small_trace,
                                                 chaos_trace):
    sched = make_scheduler(workers=1, cache_max=1)
    sched.start()
    first = _wait(sched, sched.submit_bytes(small_trace.read_bytes()).id)
    sha1 = first["trace_sha"]
    assert sched.cache.get(sha1, "our") is not None
    assert sched.cache.get_chain(sha1, "our") is not None
    assert job_ckpt_dir(sched.ckpt_base, sha1, "our").exists()

    second = _wait(sched, sched.submit_bytes(chaos_trace.read_bytes()).id)
    sha2 = second["trace_sha"]
    # the older entry, its chain sidecar, and its retained checkpoint
    # state are gone together — nothing left to resume from
    assert sched.cache.get(sha1, "our") is None
    assert sched.cache.get_chain(sha1, "our") is None
    assert not job_ckpt_dir(sched.ckpt_base, sha1, "our").exists()
    assert sched.cache.get(sha2, "our") is not None
    assert _counters(sched)["serve.cache.evicted"] == 1

    # an evicted ancestor is silently a cache miss, never an error
    job = sched.submit_bytes(small_trace.read_bytes())
    done = _wait(sched, job.id)
    assert done["state"] == "done" and done["resumed_from"] is None


def test_cache_touch_protects_recently_read_entry(make_scheduler, small_trace,
                                                  chaos_trace, tmp_path):
    """LRU means *used*, not *inserted*: a get refreshes the entry."""
    sched = make_scheduler(workers=1, cache_max=2)
    sched.start()
    first = _wait(sched, sched.submit_bytes(small_trace.read_bytes()).id)
    work = tmp_path / "third.trace"
    shutil.copyfile(chaos_trace, work)
    extend_trace(work, fraction=0.05)
    second = _wait(sched, sched.submit_bytes(chaos_trace.read_bytes()).id)
    time.sleep(0.05)  # mtime resolution
    assert sched.cache.get(first["trace_sha"], "our") is not None  # touch
    third = _wait(sched, sched.submit_bytes(work.read_bytes()).id)
    assert third["state"] == "done"
    # the untouched middle entry was evicted, the touched first survives
    assert sched.cache.get(first["trace_sha"], "our") is not None
    assert sched.cache.get(second["trace_sha"], "our") is None


# -- daemon-level chaos -------------------------------------------------------

def test_sigkill_mid_incremental_job_recovers_byte_identical(
        spawn_daemon, tmp_path, chaos_trace, chaos_oracle):
    """kill -9 between prefix-resume and completion: restart finishes it."""
    state = tmp_path / "svc"
    work = tmp_path / "grow.trace"
    shutil.copyfile(chaos_trace, work)

    # phase 1: a healthy daemon analyzes the original trace
    proc1, base1 = spawn_daemon(state, "--workers", "1")
    status, _, job1 = submit_trace(base1, work)
    assert status == 202
    assert poll_job(base1, job1["id"], timeout_s=90.0)["state"] == "done"
    proc1.terminate()
    proc1.wait(timeout=30)

    # phase 2: grow the trace, arm a kill right after the resumed job's
    # first checkpoint write, and resubmit
    extend_trace(work, fraction=0.10)
    proc2, base2 = spawn_daemon(
        state, "--workers", "1",
        env_extra={"REPRO_SERVE_FAULT": "kill-after-ckpt:1"})
    status, _, job2 = submit_trace(base2, work)
    assert status == 202
    assert job2["id"] != job1["id"]
    assert proc2.wait(timeout=90) == 137
    out = proc2.stdout.read()
    assert "prefix-resume" in out, out

    # phase 3: restart over the same state; the journaled plan replays
    proc3, base3 = spawn_daemon(state, "--workers", "1")
    done = poll_job(base3, job2["id"], timeout_s=90.0)
    assert done["state"] == "done", done
    assert done["resumed"] and done["resumed"][0]["chunks_skipped"] > 0

    oracle = analyze_trace(work, detector="our").to_dict()
    status, _, result = request(f"{base3}/jobs/{job2['id']}/result")
    assert status == 200
    assert _canon(result["verdicts"]) == _canon(oracle["verdicts"])
    assert result["forensics"] == oracle["forensics"]
    # and the original job's verdicts are still served, unchanged
    status, _, old = request(f"{base3}/jobs/{job1['id']}/result")
    assert status == 200
    assert _canon(old["verdicts"]) == _canon(chaos_oracle["verdicts"])
