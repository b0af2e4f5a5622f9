"""The §6 discussion as executable scenarios, across all detectors.

The paper's §6 dissects MPI_Win_flush handling:

1. flush_all followed by MPI_Barrier is the recommended full sync — a
   correct tool must treat ops completed before that point as ordered;
2. tools that ignore flush (the original RMA-Analyzer, MUST-RMA) report
   the cross-iteration CFD-Proxy false positive;
3. simply clearing the flushing process's BST would instead cause false
   negatives: another origin's concurrent ops still race.
"""

import pytest

from repro.core import FlatDetector, OurDetector
from repro.detectors import MustRma, RmaAnalyzerLegacy
from repro.mpi import World


def flush_iteration_program(ctx):
    """Two put 'iterations' separated by flush_all + barrier (safe)."""
    win = yield ctx.win_allocate("w", 64)
    buf = ctx.alloc("buf", 8, rma_hint=True)
    ctx.win_lock_all(win)
    yield
    if ctx.rank == 0:
        ctx.put(win, 1, 0, buf, 0, 8)
        ctx.win_flush_all(win)
    yield ctx.barrier()
    if ctx.rank == 0:
        ctx.put(win, 1, 0, buf, 0, 8)
    yield
    ctx.win_unlock_all(win)
    yield ctx.win_free(win)


def cross_origin_after_flush_program(ctx):
    """Rank 0 flushes its put; rank 1's put is still concurrent (race)."""
    win = yield ctx.win_allocate("w", 64)
    buf = ctx.alloc("buf", 8, rma_hint=True)
    ctx.win_lock_all(win)
    yield
    if ctx.rank == 0:
        ctx.put(win, 2, 0, buf, 0, 8)
        ctx.win_flush_all(win)
    yield
    if ctx.rank == 1:
        ctx.put(win, 2, 0, buf, 0, 8)
    yield
    ctx.win_unlock_all(win)
    yield ctx.win_free(win)


def local_read_after_sync_program(ctx):
    """Target reads its window after the origin's flush+barrier (safe)."""
    win = yield ctx.win_allocate("w", 64)
    buf = ctx.alloc("buf", 8, rma_hint=True)
    ctx.win_lock_all(win)
    yield
    if ctx.rank == 0:
        ctx.put(win, 1, 0, buf, 0, 8)
        ctx.win_flush_all(win)
    yield ctx.barrier()
    if ctx.rank == 1:
        from repro.mpi.simulator import Buffer
        from repro.mpi import BYTE

        winbuf = Buffer(win.region_of(1), BYTE)
        ctx.load(winbuf, 0, 8)
    yield
    ctx.win_unlock_all(win)
    yield ctx.win_free(win)


def two_origin_accumulates_then_target_read(flushers):
    """Ranks 0 and 1 Accumulate(sum) onto the same byte of rank 2's
    window (same-op accumulates do not race), ``flushers`` flush, then a
    barrier and rank 2 reads the byte: safe iff both ranks flushed."""
    def program(ctx):
        win = yield ctx.win_allocate("w", 8)
        buf = ctx.alloc("buf", 8, rma_hint=True)
        ctx.win_lock_all(win)
        yield
        if ctx.rank in (0, 1):
            ctx.accumulate(win, 2, 0, buf, 0, 1, op="sum")
            if ctx.rank in flushers:
                ctx.win_flush_all(win)
        yield ctx.barrier()
        if ctx.rank == 2:
            from repro.mpi.simulator import Buffer
            from repro.mpi import BYTE

            ctx.load(Buffer(win.region_of(2), BYTE), 0, 1)
        yield
        ctx.win_unlock_all(win)
        yield ctx.win_free(win)

    return program


def run(det, program, nranks):
    World(nranks, [det]).run(program)
    return det.reports_total


class TestOurDetectorPreciseFlush:
    def test_no_fp_across_flushed_iterations(self):
        assert run(OurDetector(), flush_iteration_program, 2) == 0

    def test_no_fn_for_other_origins(self):
        # the trap §6 warns about: flushing must NOT absolve other ranks
        assert run(OurDetector(), cross_origin_after_flush_program, 3) == 1

    def test_no_fp_on_target_read_after_sync(self):
        assert run(OurDetector(), local_read_after_sync_program, 2) == 0


@pytest.mark.parametrize("core", [FlatDetector, OurDetector],
                         ids=lambda c: c.__name__)
class TestAccumulatesOfTwoOriginsAtBarrier:
    """The two accumulates share one stored fragment; a barrier prunes
    it only once each of its origins has flushed its share."""

    def test_pruned_when_both_origins_flushed(self, core):
        program = two_origin_accumulates_then_target_read((0, 1))
        assert run(core(), program, 3) == 0

    @pytest.mark.parametrize("flushers", [(0,), (1,)])
    def test_kept_while_one_origin_is_unflushed(self, core, flushers):
        program = two_origin_accumulates_then_target_read(flushers)
        assert run(core(), program, 3) == 1


class TestLegacyToolsMishandleFlush:
    @pytest.mark.parametrize("factory", [RmaAnalyzerLegacy, MustRma])
    def test_cross_iteration_false_positive(self, factory):
        """The CFD-Proxy FP the paper observed for both tools."""
        assert run(factory(), flush_iteration_program, 2) >= 1

    @pytest.mark.parametrize("factory", [RmaAnalyzerLegacy, MustRma])
    def test_cross_origin_race_still_caught(self, factory):
        assert run(factory(), cross_origin_after_flush_program, 3) >= 1
