"""Bench: the daemon's submit→verdict latency, cold vs cached.

One in-process ``repro serve`` stack (scheduler + HTTP listener on an
ephemeral port), one recorded miniVite trace, three measurements
written to ``BENCH_serve.json``:

* ``direct`` — ``analyze_trace`` in this process: the floor any
  service path pays on top of.
* ``cold`` — first submission over HTTP: upload + admission + journal
  + checkpointed analysis + result fetch.
* ``cached`` — repeat submissions of the identical trace: answered
  from the content-hash verdict cache without running a detector
  (median of several rounds).
* ``incremental`` — a larger trace is analyzed, grown append-only by
  ~10%, and resubmitted: the daemon resumes from the ancestor's
  retained checkpoint cursor and analyzes only the new tail.  Measured
  against a from-scratch submission of the *same grown file* to a
  fresh daemon (identical HTTP/journal overhead, no cache), so the
  ratio isolates exactly what prefix-resume saves.

Verdict parity between the served result and the direct analysis is
asserted unconditionally — a fast wrong answer is not a benchmark win.

Also runnable directly::

    PYTHONPATH=src python benchmarks/bench_serve.py
"""

from __future__ import annotations

import json
import os
import statistics
import tempfile
import threading
import time
from pathlib import Path

from repro.pipeline import analyze_trace, record_app
from repro.serve import (
    ReproServer,
    Scheduler,
    ServeConfig,
    poll_job,
    request,
    submit_trace,
)

OUT = Path(__file__).resolve().parent.parent / "BENCH_serve.json"

CACHED_ROUNDS = 5

#: the incremental leg uses a bigger recording so analysis time
#: dominates the fixed per-request overhead it is measured against
INCR_SIZE = 4096
INCR_GROW_FRACTION = 0.10


def _submit_to_verdict(base: str, trace: Path) -> tuple:
    """One submit→terminal round-trip; returns (seconds, job dict)."""
    t0 = time.perf_counter()
    status, _, job = submit_trace(base, trace)
    assert status == 202, (status, job)
    if job["state"] not in ("done", "failed", "quarantined"):
        job = poll_job(base, job["id"], timeout_s=120.0, interval_s=0.005)
    dt = time.perf_counter() - t0
    assert job["state"] == "done", job
    return dt, job


class _Stack:
    """One in-process daemon (scheduler + HTTP listener) on a state dir."""

    def __init__(self, state: Path):
        self.config = ServeConfig(state_dir=str(state), port=0, workers=1)
        self.sched = Scheduler(state, workers=1)
        self.sched.recover()
        self.sched.start()
        self.httpd = ReproServer(self.config, self.sched)
        threading.Thread(target=self.httpd.serve_forever,
                         kwargs={"poll_interval": 0.01},
                         daemon=True).start()
        host, port = self.httpd.server_address[:2]
        self.base = f"http://{host}:{port}"

    def close(self):
        self.httpd.shutdown()
        self.httpd.server_close()
        self.sched.drain(timeout=10.0)


def _incremental_leg(tmp: Path) -> dict:
    """Grow a trace ~10% and measure prefix-resume vs from-scratch."""
    from repro.faultinject import extend_trace

    trace = tmp / "incr.trace"
    rec = record_app("minivite", nranks=4, size=INCR_SIZE,
                     inject_race=True, out=trace)
    stack = _Stack(tmp / "incr-svc")
    try:
        base_s, _ = _submit_to_verdict(stack.base, trace)
        grown = extend_trace(trace, fraction=INCR_GROW_FRACTION)
        incr_s, incr_job = _submit_to_verdict(stack.base, trace)
        assert incr_job["resumed_from"], incr_job
        assert incr_job["resumed"], "grown trace did not prefix-resume"
        chunks_skipped = incr_job["resumed"][0]["chunks_skipped"]
        assert chunks_skipped > 0, incr_job
        _, _, incr_result = request(
            f"{stack.base}/jobs/{incr_job['id']}/result")
    finally:
        stack.close()

    # from-scratch reference: the *same grown file* through a fresh
    # daemon with an empty cache — identical transport overhead
    scratch = _Stack(tmp / "scratch-svc")
    try:
        scratch_s, scratch_job = _submit_to_verdict(scratch.base, trace)
        assert not scratch_job["resumed"], scratch_job
        _, _, scratch_result = request(
            f"{scratch.base}/jobs/{scratch_job['id']}/result")
    finally:
        scratch.close()

    for key in ("verdicts", "forensics"):
        assert (json.dumps(incr_result[key], sort_keys=True)
                == json.dumps(scratch_result[key], sort_keys=True)), \
            f"incremental {key} diverged from from-scratch analysis"
    assert incr_result["events_total"] == scratch_result["events_total"]

    return {
        "events_base": rec.events,
        "events_appended": grown["events_appended"],
        "grow_fraction": INCR_GROW_FRACTION,
        "chunks_total": grown["chunks_after"],
        "chunks_skipped": chunks_skipped,
        "base_submit_to_verdict_s": round(base_s, 4),
        "fromscratch_submit_to_verdict_s": round(scratch_s, 4),
        "incremental_submit_to_verdict_s": round(incr_s, 4),
        "ratio_vs_fromscratch": round(incr_s / scratch_s, 3)
        if scratch_s > 0 else None,
        "speedup_x": round(scratch_s / incr_s, 1) if incr_s > 0 else None,
    }


def run_serve_bench(out: Path = OUT, *, size: int = 512) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        trace = Path(tmp) / "mv.trace"
        rec = record_app("minivite", nranks=4, size=size,
                         inject_race=True, out=trace)

        t0 = time.perf_counter()
        direct = analyze_trace(trace, detector="our")
        direct_s = time.perf_counter() - t0

        state = Path(tmp) / "svc"
        config = ServeConfig(state_dir=str(state), port=0, workers=1)
        sched = Scheduler(state, workers=1)
        sched.recover()
        sched.start()
        httpd = ReproServer(config, sched)
        threading.Thread(target=httpd.serve_forever,
                         kwargs={"poll_interval": 0.01},
                         daemon=True).start()
        host, port = httpd.server_address[:2]
        base = f"http://{host}:{port}"
        try:
            cold_s, cold_job = _submit_to_verdict(base, trace)
            assert not cold_job["cached"]
            _, _, served = request(f"{base}/jobs/{cold_job['id']}/result")
            assert (json.dumps(served["verdicts"], sort_keys=True)
                    == json.dumps(direct.to_dict()["verdicts"],
                                  sort_keys=True)), \
                "served verdicts diverged from direct analysis"

            cached = []
            for _ in range(CACHED_ROUNDS):
                dt, job = _submit_to_verdict(base, trace)
                assert job["cached"], job
                cached.append(dt)
        finally:
            httpd.shutdown()
            httpd.server_close()
            sched.drain(timeout=10.0)

        incremental = _incremental_leg(Path(tmp))

    cached_median = statistics.median(cached)
    report = {
        "bench": "serve_latency",
        "app": "minivite",
        "events": rec.events,
        "cpu_count": os.cpu_count(),
        "races": direct.races,
        "direct_analyze_s": round(direct_s, 4),
        "cold": {
            "submit_to_verdict_s": round(cold_s, 4),
            "overhead_vs_direct_x": round(cold_s / direct_s, 2)
            if direct_s > 0 else None,
        },
        "cached": {
            "rounds": CACHED_ROUNDS,
            "submit_to_verdict_s_median": round(cached_median, 4),
            "submit_to_verdict_s": [round(d, 4) for d in cached],
            "speedup_vs_cold_x": round(cold_s / cached_median, 1)
            if cached_median > 0 else None,
        },
        "incremental": incremental,
    }
    out.write_text(json.dumps(report, indent=2) + "\n")
    return report


def test_serve_latency(once):
    report = once(run_serve_bench)
    print(f"\ncold submit→verdict: {report['cold']['submit_to_verdict_s']}s "
          f"({report['cold']['overhead_vs_direct_x']}x direct), "
          f"cached: {report['cached']['submit_to_verdict_s_median']}s "
          f"({report['cached']['speedup_vs_cold_x']}x faster)")
    assert OUT.exists()
    incr = report["incremental"]
    print(f"incremental re-analysis after +{incr['events_appended']} events: "
          f"{incr['incremental_submit_to_verdict_s']}s vs "
          f"{incr['fromscratch_submit_to_verdict_s']}s from scratch "
          f"({incr['ratio_vs_fromscratch']}x, "
          f"{incr['chunks_skipped']} chunk(s) skipped)")
    # a cache hit must be decisively cheaper than re-analysis
    assert (report["cached"]["submit_to_verdict_s_median"]
            < report["cold"]["submit_to_verdict_s"]), report
    # a ~10% grown trace must resume, not re-run: ≤0.3× from-scratch
    assert incr["chunks_skipped"] > 0, report
    assert incr["ratio_vs_fromscratch"] <= 0.3, report


if __name__ == "__main__":
    print(json.dumps(run_serve_bench(), indent=2))
