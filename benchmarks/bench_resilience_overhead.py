"""Bench: what resilience costs — salvage reads and checkpoints.

Three measurements on recorded miniVite traces, written to
``BENCH_resilience.json``:

* salvage vs strict read throughput on the intact trace — checksummed
  best-effort reading must be nearly free when nothing is damaged.
* ``checkpoint`` — paired serial runs with checkpointing off vs on at
  one checkpoint per chunk (``--ckpt-every 1``, the pinned cadence
  the chaos tests use) on the 36,895-event miniVite trace the serve
  benchmark uses, interleaved A/B/A/B so machine drift hits both sides
  equally; the median of the per-pair on/off wall-time ratios is the
  checkpoint overhead, reported with the checkpoints each run wrote
  and their bytes.  The DESIGN.md §11 target is ≤ 5%; this cadence
  does not meet it (the measured ratio is recorded next to it there).
* ``checkpoint_default`` — the same measurement (same trace, five
  interleaved pairs) at the default amortized placement, which writes
  the final checkpoint only on this trace.  The ≤ 5% target is met on
  this leg: 1.02-1.05x median over four runs on the 2-core reference
  container (DESIGN.md §11).

Also runnable directly::

    PYTHONPATH=src python benchmarks/bench_resilience_overhead.py
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import tempfile
import time
from pathlib import Path

from repro.pipeline import TraceReader, analyze_trace, record_app
from repro.pipeline.checkpoint import add_write_hook, remove_write_hook

OUT = Path(__file__).resolve().parent.parent / "BENCH_resilience.json"

#: miniVite vertices of the checkpoint leg's trace: 36,895 events in 19
#: chunks, the trace ``bench_serve.py`` submits (``INCR_SIZE``)
CKPT_SIZE = 4096

#: the checkpoint leg's bound: median on/off ratio at one checkpoint per
#: chunk, measured 1.5-1.8x on the 2-core reference container (see
#: DESIGN.md §11), with room for shared-runner timer noise
CKPT_MAX_RATIO = 2.5

#: the default-cadence leg's bound: the target is 1.05x and it measures
#: 1.02-1.05x; single ratios on a shared 2-core VM spread by +-30%, so
#: the bound leaves room for a noisy median and still catches a
#: placement rule that checkpoints every few chunks again (~1.5x)
CKPT_DEFAULT_MAX_RATIO = 1.25


def _read_throughput(trace: Path, *, strict: bool) -> float:
    reader = TraceReader(trace, strict=strict)
    t0 = time.perf_counter()
    n = sum(1 for _ in reader)
    return n / (time.perf_counter() - t0)


def _ckpt_overhead(trace: Path, tmp: Path, *, every, pairs: int = 5
                   ) -> dict:
    """Median on/off wall-time ratio over interleaved paired runs, at a
    cadence of ``every`` chunks (``None``: the amortized default);
    every "on" run must write checkpoints."""
    ratios = []
    off_walls, on_walls = [], []
    sizes: list = []

    def note_size(_lane, _seq, path):
        sizes.append(path.stat().st_size)

    add_write_hook(note_size)
    try:
        for i in range(pairs):
            off = analyze_trace(trace, detector="our")
            ck = tmp / f"ck{every}-{i}"
            del sizes[:]
            on = analyze_trace(trace, detector="our",
                               ckpt_dir=ck, ckpt_every=every)
            assert on.verdicts == off.verdicts, \
                "checkpointing changed the verdict set"
            assert on.forensics == off.forensics
            written = on.checkpoint["written"]
            assert written > 0 and written == len(sizes), on.checkpoint
            off_walls.append(off.wall_seconds)
            on_walls.append(on.wall_seconds)
            if off.wall_seconds > 0:
                ratios.append(on.wall_seconds / off.wall_seconds)
    finally:
        remove_write_hook(note_size)
    return {
        "ckpt_every": every,
        "events": on.events_total,
        "pairs": pairs,
        "checkpoints_per_run": written,
        "checkpoint_bytes_per_run": sum(sizes),
        "checkpoint_bytes_max": max(sizes),
        "wall_seconds_off_median": round(statistics.median(off_walls), 4),
        "wall_seconds_on_median": round(statistics.median(on_walls), 4),
        "overhead_ratio_median": round(statistics.median(ratios), 3),
        "overhead_ratios": [round(r, 3) for r in ratios],
    }


def run_overhead(out: Path = OUT, *, size: int = 512) -> dict:
    """Record the traces, measure salvage reads and checkpoints, write
    the report."""
    with tempfile.TemporaryDirectory() as tmp:
        trace = Path(tmp) / "mv.trace"
        rec = record_app("minivite", nranks=4, size=size,
                         inject_race=True, out=trace)

        strict_eps = _read_throughput(trace, strict=True)
        salvage_eps = _read_throughput(trace, strict=False)
        ckpt_trace = Path(tmp) / "ckpt.trace"
        record_app("minivite", nranks=4, size=CKPT_SIZE, inject_race=True,
                   out=ckpt_trace)
        checkpoint = _ckpt_overhead(ckpt_trace, Path(tmp), every=1)
        checkpoint_default = _ckpt_overhead(ckpt_trace, Path(tmp),
                                            every=None)

    assert salvage_eps > 0 and strict_eps > 0

    report = {
        "bench": "resilience_overhead",
        "app": "minivite",
        "events": rec.events,
        "cpu_count": os.cpu_count(),
        # the run's config: every analysis takes the default path
        "config": {
            "python": platform.python_version(),
            "REPRO_OBS": os.environ.get("REPRO_OBS", "on"),
            "REPRO_OBS_TIMELINE": os.environ.get("REPRO_OBS_TIMELINE", "on"),
            "read_trace_size": size,
            "ckpt_trace_size": CKPT_SIZE,
        },
        "read_events_per_sec": {
            "strict": round(strict_eps, 1),
            "salvage": round(salvage_eps, 1),
            "salvage_vs_strict": round(salvage_eps / strict_eps, 3),
        },
        "checkpoint": checkpoint,
        "checkpoint_default": checkpoint_default,
    }
    out.write_text(json.dumps(report, indent=2) + "\n")
    return report


def test_resilience_overhead(once):
    report = once(run_overhead)
    print(f"\nsalvage read: "
          f"{report['read_events_per_sec']['salvage_vs_strict']}x strict, "
          f"ckpt overhead: "
          f"{report['checkpoint']['overhead_ratio_median']}x per chunk, "
          f"{report['checkpoint_default']['overhead_ratio_median']}x "
          f"default")
    assert OUT.exists()
    # salvage-mode reading of an intact trace stays in the same ballpark
    # as strict reading (generous bound: timer noise on tiny traces)
    assert report["read_events_per_sec"]["salvage_vs_strict"] > 0.3, report
    # one checkpoint per chunk misses the <= 5% target (DESIGN.md §11);
    # the bound catches a regression past the restated measurement
    assert report["checkpoint"]["checkpoints_per_run"] > 0, report
    assert report["checkpoint"]["overhead_ratio_median"] < CKPT_MAX_RATIO, \
        report
    # the default placement meets the target; its bound absorbs noise
    default = report["checkpoint_default"]
    assert default["checkpoints_per_run"] > 0, report
    assert default["overhead_ratio_median"] < CKPT_DEFAULT_MAX_RATIO, report


if __name__ == "__main__":
    print(json.dumps(run_overhead(), indent=2))
