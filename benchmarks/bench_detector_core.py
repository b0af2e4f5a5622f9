"""Bench: flat-array detector core vs the object-core oracle — serial events/s.

The flat core re-implements the §4 detector over struct-of-arrays
interval stores, interned records and a fused binary wire path; it is
what ``analyze_trace`` runs.  The object core (``OurDetector``) is the
reference oracle, selectable by no entry point, so its leg replays the
trace directly the way the engine's decoded path does: every decoded
``TraceReader`` chunk into :func:`repro.pipeline.shard.dispatch_batch`.
This bench times both on the two recorded workloads the paper reports
— miniVite with an injected race and CFD-Proxy — and writes
``BENCH_detector_core.json``.

Methodology notes:

* obs is disabled for the timed runs (a disabled ``obs.scope``), so the
  wire fast path engages and neither core pays metrics overhead — same
  configuration the ROADMAP throughput baseline was measured in;
* runs are *interleaved* (object, flat, object, flat, ...) and the best
  of ``ROUNDS`` per core is kept: container timers drift ±20% between
  runs, and interleaving keeps a frequency excursion from crediting one
  core only;
* verdict byte-parity across cores is asserted unconditionally — a
  throughput number for a core that disagrees is meaningless;
* the smoke gate asserts flat ≥ 3× object on every workload.  Measured
  ratios are ~4–5.5× (miniVite) and ~7–8× (CFD); the gate sits at 3×
  so container noise cannot flake CI while a real regression (losing
  the wire path, an accidental object fallback) still fails hard.

Also runnable directly::

    PYTHONPATH=src python benchmarks/bench_detector_core.py
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path

from repro import obs
from repro.core import OurDetector
from repro.obs import Registry
from repro.pipeline import TraceReader, analyze_trace, record_app
from repro.pipeline.engine import canonical_verdicts
from repro.pipeline.shard import dispatch_batch

OUT = Path(__file__).resolve().parent.parent / "BENCH_detector_core.json"

#: interleaved timing rounds per core (best-of is kept)
ROUNDS = 3

#: CI smoke gate: flat-core serial events/s over object-core, per
#: workload.  The paper target is 5x; 3x leaves margin for the ±20%
#: container timer drift documented above.
MIN_SPEEDUP = 3.0

WORKLOADS = (
    {"app": "minivite", "nranks": 4, "size": 512, "inject_race": True},
    {"app": "cfd", "nranks": 4, "size": 8, "inject_race": False},
)


def _object_replay(trace: Path):
    """The object core over the decoded trace, chunk by chunk."""
    reader = TraceReader(trace)
    det = OurDetector()
    for chunk, _cursor in reader.iter_chunks():
        dispatch_batch(det, chunk, reader.nranks)
    det.finalize()
    return canonical_verdicts(det.reports)


def _timed_run(trace: Path, core: str):
    with obs.scope(Registry(enabled=False), merge=False):
        t0 = time.perf_counter()
        if core == "flat":
            verdicts = analyze_trace(trace, detector="our").verdicts
        else:
            verdicts = _object_replay(trace)
        wall = time.perf_counter() - t0
    return verdicts, wall


def _bench_workload(spec: dict, tmp: str) -> dict:
    trace = Path(tmp) / f"{spec['app']}.trace"
    rec = record_app(spec["app"], nranks=spec["nranks"], size=spec["size"],
                     inject_race=spec["inject_race"], out=trace)

    walls = {"object": [], "flat": []}
    digests = {}
    races = {}
    for _ in range(ROUNDS):
        for core in ("object", "flat"):
            verdicts, wall = _timed_run(trace, core)
            walls[core].append(wall)
            digests[core] = json.dumps(verdicts, sort_keys=True, default=str)
            races[core] = len(verdicts)

    assert digests["flat"] == digests["object"], \
        f"{spec['app']}: cores disagree on verdicts"
    if spec["inject_race"]:
        assert races["flat"] > 0, f"{spec['app']}: injected race not found"

    eps = {core: rec.events / min(w) for core, w in walls.items()}
    return {
        "app": spec["app"],
        "nranks": rec.nranks,
        "size": spec["size"],
        "events": rec.events,
        "races": races["flat"],
        "rounds": ROUNDS,
        "object_events_per_sec": round(eps["object"], 1),
        "flat_events_per_sec": round(eps["flat"], 1),
        "speedup_x": round(eps["flat"] / eps["object"], 2),
    }


def run_core_bench(out: Path = OUT) -> dict:
    """Record both workloads, race the two cores, write the report."""
    with tempfile.TemporaryDirectory() as tmp:
        workloads = [_bench_workload(spec, tmp) for spec in WORKLOADS]

    report = {
        "bench": "detector_core",
        "cores": ["object", "flat"],
        "detector": "our",
        "cpu_count": os.cpu_count(),
        "obs": "off",
        "min_speedup_gate": MIN_SPEEDUP,
        "workloads": workloads,
    }
    out.write_text(json.dumps(report, indent=2) + "\n")
    return report


def test_detector_core_speedup(once):
    report = once(run_core_bench)
    print("\ncore speedup: " + ", ".join(
        f"{w['app']}: {w['speedup_x']}x "
        f"({w['object_events_per_sec']:,.0f} -> "
        f"{w['flat_events_per_sec']:,.0f} ev/s)"
        for w in report["workloads"]))
    assert OUT.exists()
    for w in report["workloads"]:
        assert w["flat_events_per_sec"] > 0
        assert w["speedup_x"] >= MIN_SPEEDUP, (
            f"{w['app']}: flat core only {w['speedup_x']}x over object "
            f"(gate {MIN_SPEEDUP}x) — wire fast path regressed?")


if __name__ == "__main__":
    print(json.dumps(run_core_bench(), indent=2))
