"""Bench: sharded-pipeline scaling — events/s at jobs ∈ {1, 2, 4}.

Records a miniVite trace once, then analyzes it with the 'our' detector
serially and through the sharded multiprocessing pipeline, and writes
the throughput curve to ``BENCH_pipeline.json``.  Parity of the verdict
sets across all job counts is asserted unconditionally; the >=2x speedup
of ``--jobs 4`` over serial is asserted only on machines with at least
four cores (a single-core container physically cannot scale).

Also runnable directly::

    PYTHONPATH=src python benchmarks/bench_pipeline_scale.py
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

from repro.pipeline import analyze_trace, record_app

JOBS = (1, 2, 4)
OUT = Path(__file__).resolve().parent.parent / "BENCH_pipeline.json"


def run_scaling(out: Path = OUT, *, size: int = 512) -> dict:
    """Record one trace, sweep job counts, write and return the report."""
    with tempfile.TemporaryDirectory() as tmp:
        trace = Path(tmp) / "mv.trace"
        rec = record_app("minivite", nranks=4, size=size,
                         inject_race=True, out=trace)

        runs = []
        for jobs in JOBS:
            result = analyze_trace(trace, detector="our", jobs=jobs)
            runs.append({
                "jobs": jobs,
                "dispatch": result.dispatch,
                "events_per_sec": round(result.events_per_sec, 1),
                "wall_seconds": round(result.wall_seconds, 4),
                "races": result.races,
                "verdicts_digest": json.dumps(result.verdicts,
                                              sort_keys=True),
            })

    serial = runs[0]["events_per_sec"]
    report = {
        "bench": "pipeline_scale",
        "app": "minivite",
        "detector": "our",
        "events": rec.events,
        "nranks": rec.nranks,
        "cpu_count": os.cpu_count(),
        "runs": [{k: v for k, v in r.items() if k != "verdicts_digest"}
                 for r in runs],
        "speedup_vs_serial": {
            str(r["jobs"]): round(r["events_per_sec"] / serial, 2)
            for r in runs if serial > 0
        },
    }
    out.write_text(json.dumps(report, indent=2) + "\n")

    # verdict parity across all job counts is unconditional
    digests = {r["verdicts_digest"] for r in runs}
    assert len(digests) == 1, "job counts disagree on verdicts"
    assert runs[0]["races"] > 0, "injected race not found"
    return report


def test_pipeline_scaling(once):
    report = once(run_scaling)
    print("\njobs -> events/s: " + ", ".join(
        f"{r['jobs']}: {r['events_per_sec']:,.0f}" for r in report["runs"]))

    # throughput is real at every job count
    assert all(r["events_per_sec"] > 0 for r in report["runs"])
    assert OUT.exists()

    if (os.cpu_count() or 1) >= 4:
        assert report["speedup_vs_serial"]["4"] >= 2.0, report


if __name__ == "__main__":
    rep = run_scaling()
    print(json.dumps(rep, indent=2))
