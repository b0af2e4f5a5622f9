"""End-to-end integration scenarios across the whole stack."""

import pytest

from repro import (
    DataRaceError,
    FlatDetector,
    McCChecker,
    MustRma,
    ParkMirror,
    RmaAnalyzerLegacy,
    World,
)
from repro.core import OurDetector
from repro.mpi import INT64


ALL_DETECTORS = [FlatDetector, OurDetector, RmaAnalyzerLegacy, MustRma,
                 ParkMirror, McCChecker]


def ring_shift_program(ctx):
    """A correct neighbour-exchange: every rank puts into its own block."""
    win = yield ctx.win_allocate("ring", 8 * ctx.size, INT64)
    buf = ctx.alloc("buf", 8, INT64, rma_hint=True)
    buf.np[:] = ctx.rank
    ctx.win_lock_all(win)
    yield ctx.barrier()
    right = (ctx.rank + 1) % ctx.size
    ctx.put(win, right, 8 * ctx.rank, buf, 0, 8)
    ctx.win_flush_all(win)
    yield ctx.barrier()
    ctx.win_unlock_all(win)
    # validate the data actually moved
    left = (ctx.rank - 1) % ctx.size
    assert list(win.memory(ctx.rank)[8 * left : 8 * left + 8]) == [left] * 8
    yield ctx.win_free(win)


def colliding_ring_program(ctx):
    """Broken exchange: every rank writes rank 0's block — races galore."""
    win = yield ctx.win_allocate("ring", 8, INT64)
    buf = ctx.alloc("buf", 8, INT64, rma_hint=True)
    ctx.win_lock_all(win)
    yield ctx.barrier()
    ctx.put(win, 0, 0, buf, 0, 8)
    yield ctx.barrier()
    ctx.win_unlock_all(win)
    yield ctx.win_free(win)


class TestCorrectProgramAcrossDetectors:
    @pytest.mark.parametrize("factory", ALL_DETECTORS,
                             ids=lambda f: f.__name__)
    def test_no_reports_on_clean_exchange(self, factory):
        det = factory()
        World(4, [det]).run(ring_shift_program)
        if isinstance(det, (RmaAnalyzerLegacy,)):
            # flush is not instrumented by the legacy tool, but this
            # program only writes each block once: still clean
            pass
        assert det.reports_total == 0, det.reports[:2]


class TestRacyProgramAcrossDetectors:
    @pytest.mark.parametrize(
        "factory",
        [FlatDetector, OurDetector, RmaAnalyzerLegacy, MustRma, ParkMirror,
         McCChecker],
        ids=lambda f: f.__name__,
    )
    def test_all_rma_aware_tools_catch_window_races(self, factory):
        if factory is MustRma:
            pytest.skip("window collision: covered below with heap window")
        det = factory()
        World(3, [det]).run(colliding_ring_program)
        assert det.reports_total >= 1

    def test_must_rma_catches_it_with_heap_window(self):
        det = MustRma()
        World(3, [det]).run(colliding_ring_program)
        assert det.reports_total >= 1


class TestMultipleDetectorsSimultaneously:
    def test_verdicts_agree_when_attached_together(self):
        ours, legacy = OurDetector(), RmaAnalyzerLegacy()
        World(3, [ours, legacy]).run(colliding_ring_program)
        assert ours.reports_total >= 1
        assert legacy.reports_total >= 1

    def test_abort_mode_stops_the_world(self):
        det = OurDetector(abort_on_race=True)
        with pytest.raises(DataRaceError) as excinfo:
            World(3, [det]).run(colliding_ring_program)
        assert "RMA_WRITE" in str(excinfo.value)


class TestScale:
    def test_many_ranks(self):
        det = OurDetector()
        World(32, [det]).run(ring_shift_program)
        assert det.reports_total == 0
        stats = det.node_stats()
        assert len(stats.max_nodes_per_rank) == 32

    def test_repeated_epochs_many_windows(self):
        def program(ctx):
            for w in range(3):
                win = yield ctx.win_allocate(f"w{w}", 64)
                buf = ctx.alloc(f"buf{w}", 8, rma_hint=True)
                for _ in range(4):
                    ctx.win_lock_all(win)
                    yield ctx.barrier()
                    ctx.put(win, (ctx.rank + 1) % ctx.size, 0, buf, 0, 8)
                    ctx.win_flush_all(win)
                    yield ctx.barrier()
                    ctx.win_unlock_all(win)
                    yield ctx.barrier()
                yield ctx.win_free(win)

        det = OurDetector()
        World(4, [det]).run(program)
        assert det.reports_total == 0
