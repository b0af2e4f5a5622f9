#!/usr/bin/env python
"""Quickstart: detect your first MPI-RMA data race.

Runs a tiny two-rank program on the simulated MPI-RMA runtime:

* rank 0 issues an ``MPI_Get`` and then — while the Get may still be in
  flight — reads the destination buffer.  That is the paper's Fig. 2a
  race: the buffer's value depends on timing.
* the corrected version waits for the epoch to close before reading.

Usage::

    python examples/quickstart.py
"""

from repro import FlatDetector, World


def racy_program(ctx):
    """Fig. 2a: Get followed by a Load of the same buffer."""
    win = yield ctx.win_allocate("X", 64)
    buf = ctx.alloc("buf", 64, rma_hint=True)

    ctx.win_lock_all(win)
    if ctx.rank == 0:
        ctx.get(win, target=1, disp=0, buf=buf, count=8)
        ctx.load(buf, 0)  # RACE: the Get has not completed
    ctx.win_unlock_all(win)
    yield ctx.win_free(win)


def fixed_program(ctx):
    """The fix: read after the epoch closed (completion guaranteed)."""
    win = yield ctx.win_allocate("X", 64)
    buf = ctx.alloc("buf", 64, rma_hint=True)

    ctx.win_lock_all(win)
    if ctx.rank == 0:
        ctx.get(win, target=1, disp=0, buf=buf, count=8)
    ctx.win_unlock_all(win)  # completes the Get
    if ctx.rank == 0:
        ctx.load(buf, 0)  # safe now
    yield ctx.win_free(win)


def main() -> None:
    print("== racy version ==")
    detector = FlatDetector()
    World(nranks=2, detectors=[detector]).run(racy_program)
    for report in detector.reports:
        print(report.message)
    assert detector.race_detected

    print("\n== fixed version ==")
    detector = FlatDetector()
    World(nranks=2, detectors=[detector]).run(fixed_program)
    print("races found:", detector.reports_total)
    assert not detector.race_detected


if __name__ == "__main__":
    main()
