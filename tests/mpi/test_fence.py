"""Tests for active-target (MPI_Win_fence) synchronization."""

import pytest

from repro.core import FlatDetector, OurDetector
from repro.detectors import McCChecker, MustRma, ParkMirror, RmaAnalyzerLegacy
from repro.mpi import EpochError, INT64, World

ALL_DETECTORS = [FlatDetector, OurDetector, RmaAnalyzerLegacy, MustRma,
                 ParkMirror, McCChecker]


def exchange_program(ctx, epochs=3):
    """A correct fence-separated exchange: disjoint blocks, repeated."""
    win = yield ctx.win_allocate("w", 8 * ctx.size, INT64)
    buf = ctx.alloc("buf", 8, INT64, rma_hint=True)
    yield ctx.win_fence(win)
    for _ in range(epochs):
        ctx.put(win, (ctx.rank + 1) % ctx.size, 8 * ctx.rank, buf, 0, 8)
        yield ctx.win_fence(win)
    yield ctx.win_free(win)


def racy_program(ctx):
    """Everyone writes rank 0's block inside one fence epoch."""
    win = yield ctx.win_allocate("w", 8, INT64)
    buf = ctx.alloc("buf", 8, INT64, rma_hint=True)
    yield ctx.win_fence(win)
    ctx.put(win, 0, 0, buf, 0, 8)
    yield ctx.win_fence(win)
    yield ctx.win_free(win)


class TestEpochMechanics:
    def test_rma_before_first_fence_rejected(self):
        def program(ctx):
            win = yield ctx.win_allocate("w", 8, INT64)
            buf = ctx.alloc("buf", 8, INT64)
            ctx.put(win, 0, 0, buf, 0, 8)
            yield ctx.win_fence(win)
            yield ctx.win_free(win)

        with pytest.raises(EpochError):
            World(2).run(program)

    def test_mixing_fence_and_lock_rejected(self):
        def program(ctx):
            win = yield ctx.win_allocate("w", 8, INT64)
            ctx.win_lock_all(win)
            yield ctx.win_fence(win)

        with pytest.raises(EpochError):
            World(2).run(program)

    def test_unlock_in_fence_mode_rejected(self):
        def program(ctx):
            win = yield ctx.win_allocate("w", 8, INT64)
            yield ctx.win_fence(win)
            ctx.win_unlock_all(win)
            yield ctx.win_free(win)

        with pytest.raises(EpochError):
            World(2).run(program)

    def test_free_after_final_fence_allowed(self):
        World(2).run(exchange_program, 1)

    def test_data_moves(self):
        seen = {}

        def program(ctx):
            win = yield ctx.win_allocate("w", 8 * ctx.size, INT64)
            buf = ctx.alloc("buf", 8, INT64)
            buf.np[:] = ctx.rank + 10
            yield ctx.win_fence(win)
            ctx.put(win, (ctx.rank + 1) % ctx.size, 8 * ctx.rank, buf, 0, 8)
            yield ctx.win_fence(win)
            left = (ctx.rank - 1) % ctx.size
            seen[ctx.rank] = int(win.memory(ctx.rank)[8 * left])
            yield ctx.win_free(win)

        World(3).run(program)
        assert seen == {0: 12, 1: 10, 2: 11}


class TestDetection:
    @pytest.mark.parametrize("factory", ALL_DETECTORS, ids=lambda f: f.__name__)
    def test_clean_exchange_no_reports(self, factory):
        det = factory()
        World(4, [det]).run(exchange_program)
        assert det.reports_total == 0, det.reports[:2]

    @pytest.mark.parametrize("factory", ALL_DETECTORS, ids=lambda f: f.__name__)
    def test_intra_epoch_race_detected(self, factory):
        det = factory()
        World(3, [det]).run(racy_program)
        assert det.reports_total >= 1

    def test_fence_separates_epochs(self):
        """Same range written in consecutive fence epochs: ordered, safe."""

        def program(ctx):
            win = yield ctx.win_allocate("w", 8, INT64)
            buf = ctx.alloc("buf", 8, INT64, rma_hint=True)
            yield ctx.win_fence(win)
            if ctx.rank == 0:
                ctx.put(win, 1, 0, buf, 0, 8)
            yield ctx.win_fence(win)
            if ctx.rank == 1:
                ctx.put(win, 1, 0, buf, 0, 8)  # different origin, next epoch
            yield ctx.win_fence(win)
            yield ctx.win_free(win)

        det = OurDetector()
        World(2, [det]).run(program)
        assert det.reports_total == 0

    def test_bst_cleared_at_each_fence(self):
        det = OurDetector()
        World(4, [det]).run(exchange_program, 5)
        stats = det.node_stats()
        # 5 epochs of 1 put each: the per-epoch peak never accumulates
        assert stats.max_nodes_one_rank <= 2
