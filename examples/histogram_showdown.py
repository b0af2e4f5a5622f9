#!/usr/bin/env python
"""Three ways to build a distributed histogram — and what detectors say.

A classic MPI-RMA exercise: every rank counts samples into bins that
live in other ranks' windows.

1. ``MPI_Accumulate`` — correct by the §2.1 atomicity property.
2. Manual Get + add + Put — the classic lost-update race.
3. Manual RMW under exclusive ``MPI_Win_lock`` — correct again, but only
   a detector with per-target-lock *and* precise flush support (our
   contribution) can prove it; MUST-RMA's flush blindness (§6) and the
   original tool's lock_all-only instrumentation both cry wolf.

Usage::

    python examples/histogram_showdown.py [nranks]
"""

import sys

from repro import FlatDetector, MustRma, RmaAnalyzerLegacy, World
from repro.apps.histogram import HistogramConfig, HistogramResult, histogram_program
from repro.experiments import render_table

VARIANTS = [
    ("MPI_Accumulate", HistogramConfig()),
    ("manual Get+Put (buggy)", HistogramConfig(use_accumulate=False)),
    ("exclusive-lock RMW", HistogramConfig(use_accumulate=False,
                                           use_locks=True)),
]
TOOLS = [FlatDetector, RmaAnalyzerLegacy, MustRma]


def main(nranks: int = 4) -> None:
    rows = []
    for label, config in VARIANTS:
        row = [label]
        for factory in TOOLS:
            detector = factory()
            result = HistogramResult()
            World(nranks, [detector]).run(histogram_program, config, result)
            row.append("error" if detector.race_detected else "clean")
        row.append(result.total_counted)
        rows.append(row)

    headers = ["variant"] + [f().name for f in TOOLS] + ["samples counted"]
    print(render_table(headers, rows))
    print(
        "\nOnly the buggy middle variant is a real race; the lock-based fix\n"
        "is a false positive for tools without per-target-lock + precise\n"
        "MPI_Win_flush support (the paper's §5.1 / §6 limitations)."
    )


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 4)
