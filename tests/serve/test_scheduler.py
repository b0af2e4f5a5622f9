"""Scheduler policy: admission, retry/quarantine, cache, recovery."""

import io
import json
import os
import subprocess
import sys
import time
import tracemalloc

import pytest

import repro.serve.scheduler as scheduler_mod
from repro import obs
from repro.obs.registry import Registry
from repro.pipeline import trace_chain
from repro.serve import AdmissionError, VerdictCache


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


# -- admission control --------------------------------------------------------

def test_queue_full_rejects(make_scheduler, small_trace):
    sched = make_scheduler(max_queue=1)  # workers never started
    data = small_trace.read_bytes()
    sched.submit_bytes(data, detector="our")
    with pytest.raises(AdmissionError) as exc:
        sched.submit_bytes(data, detector="rma")
    assert exc.value.reason == "queue_full"
    assert exc.value.retry_after_s > 0
    assert _counters(sched)[
        "serve.admission.rejected{reason=queue_full}"] == 1


def test_tenant_cap_rejects_per_tenant(make_scheduler, small_trace):
    sched = make_scheduler(max_queue=10, tenant_cap=1)
    data = small_trace.read_bytes()
    sched.submit_bytes(data, detector="our", tenant="alice")
    with pytest.raises(AdmissionError) as exc:
        sched.submit_bytes(data, detector="rma", tenant="alice")
    assert exc.value.reason == "tenant_cap"
    # another tenant is not starved by alice's cap
    job = sched.submit_bytes(data, detector="rma", tenant="bob")
    assert job.state == "queued"
    assert _counters(sched)[
        "serve.admission.rejected{reason=tenant_cap}"] == 1


def test_identical_live_submission_dedupes(make_scheduler, small_trace):
    sched = make_scheduler()
    data = small_trace.read_bytes()
    first = sched.submit_bytes(data, detector="our")
    second = sched.submit_bytes(data, detector="our")
    assert second.id == first.id
    assert _counters(sched)["serve.jobs.deduped"] == 1


# -- execution, cache, retries ------------------------------------------------

def test_job_runs_to_done_and_caches(make_scheduler, small_trace):
    sched = make_scheduler(workers=1)
    sched.start()
    data = small_trace.read_bytes()
    job = _wait(sched, sched.submit_bytes(data).id)
    assert job["state"] == "done"
    assert job["races"] == 0 and job["events"] > 0
    assert not job["cached"]

    # the identical resubmission answers from the verdict cache,
    # observable through the obs counters (no second analysis runs)
    again = sched.submit_bytes(data)
    assert again.state == "done" and again.cached
    counters = _counters(sched)
    assert counters["serve.cache.hits"] == 1
    assert counters["serve.cache.misses"] == 1
    assert counters["serve.jobs.started"] == 1


def test_default_registry_counts_each_job_once(tmp_path, chaos_trace,
                                               monkeypatch):
    """A scheduler on the process-default registry, as ``repro serve``
    builds it, folds a job's metrics in exactly once: the job's own
    analysis scope must not also fold them in from the worker thread."""
    monkeypatch.delenv("REPRO_OBS", raising=False)
    monkeypatch.delenv("REPRO_OBS_TIMELINE", raising=False)
    previous = obs.set_registry(Registry(enabled=True))
    try:
        sched = scheduler_mod.Scheduler(tmp_path / "state", workers=1)
        assert sched.registry is obs.active()
        sched.start()
        try:
            jid = sched.submit_bytes(chaos_trace.read_bytes()).id
            job = _wait(sched, jid)
        finally:
            sched.drain(timeout=5.0)
        assert job["state"] == "done"
        result = sched.get_result(job["id"])
        assert result["races"] > 0  # forensics read the job's timeline
        daemon = sched.registry.snapshot()
        job_counters = result["obs"]["counters"]
        assert job_counters["pipeline.events.read"] == job["events"]
        assert {k: daemon["counters"].get(k) for k in job_counters} \
            == job_counters
        assert daemon["spans"]["children"]["pipeline.analyze"]["count"] == 1
        assert len(sched.registry.timeline) == 0
    finally:
        obs.set_registry(previous)


def test_flaky_analysis_retries_then_succeeds(
        make_scheduler, small_trace, monkeypatch):
    real = scheduler_mod.analyze_trace
    calls = {"n": 0}

    def flaky(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 1:
            raise RuntimeError("transient wobble")
        return real(*args, **kwargs)

    monkeypatch.setattr(scheduler_mod, "analyze_trace", flaky)
    sched = make_scheduler(workers=1, retries=2, backoff_base=0.01)
    sched.start()
    job = _wait(sched, sched.submit_bytes(small_trace.read_bytes()).id)
    assert job["state"] == "done"
    assert job["attempts"] == 2
    assert _counters(sched)["serve.jobs.retried"] == 1


def test_backoff_delay_is_capped_exponential():
    delays = [scheduler_mod.backoff_delay(a, base=0.1, cap=2.0)
              for a in (1, 2, 3, 4, 5, 6)]
    assert delays == [0.1, 0.2, 0.4, 0.8, 1.6, 2.0]


def test_poison_job_is_quarantined(make_scheduler, small_trace, monkeypatch):
    monkeypatch.setattr(
        scheduler_mod, "analyze_trace",
        lambda *a, **k: (_ for _ in ()).throw(RuntimeError("always dies")))
    sched = make_scheduler(workers=1, retries=1, backoff_base=0.01)
    sched.start()
    job = _wait(sched, sched.submit_bytes(small_trace.read_bytes()).id)
    assert job["state"] == "quarantined"
    assert job["reason"].startswith("poison:")
    assert job["attempts"] == 2  # initial + 1 retry, then parked
    assert _counters(sched)["serve.jobs.quarantined"] == 1


def test_deterministic_failure_skips_retries(
        make_scheduler, small_trace, monkeypatch):
    monkeypatch.setattr(
        scheduler_mod, "analyze_trace",
        lambda *a, **k: (_ for _ in ()).throw(ValueError("bad knob")))
    sched = make_scheduler(workers=1, retries=5, backoff_base=0.01)
    sched.start()
    job = _wait(sched, sched.submit_bytes(small_trace.read_bytes()).id)
    assert job["state"] == "failed"
    assert job["attempts"] == 1  # no retry: same bytes, same failure
    assert job["reason"].startswith("ValueError")


#: a fresh daemon process: a job; a transient spike (touched, then
#: freed) that lifts the lifetime peak past the budget; a second job
_SPIKE_THEN_JOB = """
import json, os, resource, sys, time
from repro.serve import Scheduler

def peak_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

def now_mb():
    with open("/proc/self/statm") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / (1024.0 * 1024.0)

def run(sched, trace):
    with open(trace, "rb") as fh:
        job = sched.submit_bytes(fh.read())
    while sched.get_job(job.id)["state"] not in ("done", "failed"):
        time.sleep(0.02)
    return sched.get_job(job.id)

state, first_trace, second_trace = sys.argv[1:]
budget = int(peak_mb()) + 40
sched = Scheduler(state, workers=1, max_rss_mb=budget)
sched.start()
first = run(sched, first_trace)
spike = b"\\x01" * (int(budget + 16 - now_mb()) << 20)
del spike
assert peak_mb() > budget and now_mb() < budget
second = run(sched, second_trace)
sched.drain()
print(json.dumps([first["state"], second["state"], second["reason"]]))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"),
                    reason="needs /proc for current RSS")
def test_memory_guard_forgets_a_past_spike(tmp_path, small_trace,
                                           chaos_trace):
    """``--max-rss-mb`` budgets the daemon's memory *now*.

    A lifetime-peak probe (``ru_maxrss``) failed every job after the
    daemon had once been over budget, even with the memory long freed.
    """
    proc = subprocess.run(
        [sys.executable, "-c", _SPIKE_THEN_JOB, str(tmp_path / "state"),
         str(small_trace), str(chaos_trace)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    first, second, reason = json.loads(proc.stdout.splitlines()[-1])
    assert first == "done"
    assert second == "done", reason


# -- crash recovery -----------------------------------------------------------

def test_recover_requeues_queued_and_running(make_scheduler, small_trace):
    state = None
    first = make_scheduler(max_queue=10)
    state = first.state_dir
    data = small_trace.read_bytes()
    queued = first.submit_bytes(data, detector="our")
    running = first.submit_bytes(data, detector="rma")
    first._transition(first.jobs[running.id], "running", attempts=1)
    # "crash": abandon `first` without drain and start over from disk
    second = make_scheduler(state)
    report = second.recover()
    assert report["jobs"] == 2 and report["requeued"] == 2
    assert second.get_job(queued.id)["state"] == "queued"
    recovered = second.get_job(running.id)
    assert recovered["state"] == "queued"
    assert recovered["reason"] == "recovered"
    # ids keep growing past recovered ones — no reuse after restart
    third = second.submit_bytes(small_trace.read_bytes(), detector="mc")
    assert third.id > running.id


def test_recover_quarantines_exhausted_job(make_scheduler, small_trace):
    first = make_scheduler(retries=2)
    job = first.submit_bytes(small_trace.read_bytes())
    first._transition(first.jobs[job.id], "running", attempts=5)
    second = make_scheduler(first.state_dir, retries=2)
    report = second.recover()
    assert report["quarantined"] == 1 and report["requeued"] == 0
    assert second.get_job(job.id)["state"] == "quarantined"
    assert second.get_job(job.id)["reason"] == "poison"


def test_recover_survives_corrupt_journal(make_scheduler, small_trace):
    from repro.faultinject import corrupt_journal_record

    first = make_scheduler()
    data = small_trace.read_bytes()
    kept = first.submit_bytes(data, detector="our")
    lost = first.submit_bytes(data, detector="rma")
    journal_path = first.journal.path
    first.journal.close()
    corrupt_journal_record(journal_path, record=2, mode="flip")
    second = make_scheduler(first.state_dir)
    report = second.recover()
    # the valid prefix recovers; the damaged suffix is quarantined,
    # visible in the report and on disk — never silently dropped
    assert second.get_job(kept.id)["state"] == "queued"
    assert second.get_job(lost.id) is None
    assert report["journal_quarantined"]
    bad = journal_path.with_suffix(journal_path.suffix + ".bad")
    assert bad.exists()


def test_drain_compacts_and_reports_live(make_scheduler, small_trace):
    sched = make_scheduler()  # workers never started
    job = sched.submit_bytes(small_trace.read_bytes())
    live = sched.drain(timeout=1.0)
    assert live == [job.id]
    # compaction left a replayable journal with the job still queued
    fresh = make_scheduler(sched.state_dir)
    fresh.recover()
    assert fresh.get_job(job.id)["state"] == "queued"


# -- verdict cache hygiene ----------------------------------------------------

def test_corrupt_cache_entry_is_a_miss(tmp_path):
    cache = VerdictCache(tmp_path)
    cache.put("a" * 64, "our", {"verdicts": [], "races": 0})
    assert cache.get("a" * 64, "our") is not None
    path = cache._path("a" * 64, "our")
    path.write_text("{not json")
    assert cache.get("a" * 64, "our") is None
    assert path.with_suffix(".json.bad").exists()


def test_cache_entry_without_verdicts_is_quarantined(tmp_path):
    cache = VerdictCache(tmp_path)
    cache.put("b" * 64, "our", {"wrong": "shape"})
    assert cache.get("b" * 64, "our") is None
    assert cache._path("b" * 64, "our").with_suffix(".json.bad").exists()


def test_cache_entry_bytes_match_json_dump(tmp_path, chaos_oracle,
                                           chaos_trace):
    """The piecewise C-encoder writer emits ``json.dump``'s exact bytes."""
    cache = VerdictCache(tmp_path)
    chain = trace_chain(chaos_trace)
    edges = {"verdicts": [], "empty": [{}, [], ()], "ints": {2: "b", 1: "a"},
             "deep": [[[["d", {"z": 1, "y": [2.5, float("nan"), None]}]]]],
             "text": ["\u00e9\n\"q\"", {"\u00fc": True}], "tuple": (1, (2,))}
    tracemalloc.start()
    try:
        entry = cache.put("c" * 64, "our", chaos_oracle)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one inner value encoded at a time, never the whole entry at once
    # (a one-call json.dumps peaks at ~10x the entry size)
    assert peak < 4 * entry.stat().st_size
    for path, payload in (
            (entry, chaos_oracle),
            (cache.put_chain("c" * 64, "our", chain), chain),
            (cache.put("e" * 64, "our", edges), edges)):
        want = io.StringIO()
        json.dump(payload, want, sort_keys=True)
        assert path.read_bytes() == want.getvalue().encode("utf-8")
    assert chaos_oracle["forensics"] and chaos_oracle["timeline"]
    assert cache.get_bytes("c" * 64, "our") == \
        cache._path("c" * 64, "our").read_bytes()
    assert cache.get("c" * 64, "our") == chaos_oracle
