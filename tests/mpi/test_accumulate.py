"""Tests for MPI_Accumulate and the §2.1 atomicity property."""

import numpy as np
import pytest

from repro.core import FlatDetector, OurDetector
from repro.detectors import MustRma, RmaAnalyzerLegacy
from repro.mpi import INT64, RmaUsageError, World


def accum_program(ctx, op="sum", second_op=None, value=1):
    win = yield ctx.win_allocate("w", 8, INT64)
    buf = ctx.alloc("buf", 8, INT64, rma_hint=True)
    buf.np[:] = value * (ctx.rank + 1)
    ctx.win_lock_all(win)
    yield ctx.barrier()
    my_op = op if ctx.rank == 0 or second_op is None else second_op
    ctx.accumulate(win, 0, 0, buf, 0, 8, op=my_op)
    yield ctx.barrier()
    ctx.win_unlock_all(win)
    yield ctx.win_free(win)


class TestDataSemantics:
    def _result(self, op, nranks=3):
        captured = {}

        def program(ctx):
            win = yield ctx.win_allocate("w", 4, INT64)
            buf = ctx.alloc("buf", 4, INT64)
            buf.np[:] = ctx.rank + 1
            ctx.win_lock_all(win)
            yield ctx.barrier()
            ctx.accumulate(win, 0, 0, buf, 0, 4, op=op)
            yield ctx.barrier()
            ctx.win_unlock_all(win)
            if ctx.rank == 0:
                captured["mem"] = list(win.memory(0))
            yield ctx.win_free(win)

        World(nranks, []).run(program)
        return captured["mem"]

    def test_sum(self):
        assert self._result("sum") == [6, 6, 6, 6]  # 1 + 2 + 3

    def test_max(self):
        assert self._result("max") == [3, 3, 3, 3]

    def test_min(self):
        assert self._result("min") == [0, 0, 0, 0]  # window starts zeroed

    def test_replace_last_writer_wins(self):
        # eager sequential application: rank 2's replace lands last
        assert self._result("replace") == [3, 3, 3, 3]

    def test_unknown_op_rejected(self):
        with pytest.raises(RmaUsageError):
            World(2, []).run(accum_program, "frobnicate")


class TestAtomicityExemption:
    """§2.1 property 3: atomicity at the MPI_Datatype level."""

    @pytest.mark.parametrize("factory", [OurDetector, RmaAnalyzerLegacy, MustRma],
                             ids=lambda f: f.__name__)
    def test_concurrent_same_op_accumulates_are_safe(self, factory):
        det = factory()
        World(3, [det]).run(accum_program, "sum")
        assert det.reports_total == 0

    @pytest.mark.parametrize("factory", [OurDetector, RmaAnalyzerLegacy, MustRma],
                             ids=lambda f: f.__name__)
    def test_mixed_op_accumulates_race(self, factory):
        det = factory()
        World(3, [det]).run(accum_program, "sum", "replace")
        assert det.reports_total >= 1

    @pytest.mark.parametrize("factory", [FlatDetector, OurDetector],
                             ids=lambda f: f.__name__)
    def test_other_op_after_two_origins_same_op_races(self, factory):
        """Ranks 0 and 2 Accumulate(max), then rank 2 Accumulate(sum):
        the sum is ordered after rank 2's max but races with rank 0's."""
        def program(ctx):
            win = yield ctx.win_allocate("w", 8, INT64)
            buf = ctx.alloc("buf", 8, INT64, rma_hint=True)
            ctx.win_lock_all(win)
            yield ctx.barrier()
            for rank, op in ((0, "max"), (2, "max"), (2, "sum")):
                if ctx.rank == rank:
                    ctx.accumulate(win, 2, 0, buf, 0, 1, op=op)
                yield
            ctx.win_unlock_all(win)
            yield ctx.win_free(win)

        det = factory()
        World(3, [det]).run(program)
        assert det.reports_total == 1

    def test_accumulate_vs_put_races(self):
        def program(ctx):
            win = yield ctx.win_allocate("w", 8, INT64)
            buf = ctx.alloc("buf", 8, INT64, rma_hint=True)
            ctx.win_lock_all(win)
            yield ctx.barrier()
            if ctx.rank == 0:
                ctx.accumulate(win, 2, 0, buf, 0, 8, op="sum")
            if ctx.rank == 1:
                ctx.put(win, 2, 0, buf, 0, 8)
            yield ctx.barrier()
            ctx.win_unlock_all(win)
            yield ctx.win_free(win)

        det = OurDetector()
        World(3, [det]).run(program)
        assert det.reports_total == 1

    def test_accumulate_vs_local_read_races_at_target(self):
        def program(ctx):
            win = yield ctx.win_allocate("w", 8, INT64)
            buf = ctx.alloc("buf", 8, INT64, rma_hint=True)
            ctx.win_lock_all(win)
            yield ctx.barrier()
            if ctx.rank == 0:
                ctx.accumulate(win, 1, 0, buf, 0, 8, op="sum")
            yield
            if ctx.rank == 1:
                from repro.mpi.simulator import Buffer

                winbuf = Buffer(win.region_of(1), INT64)
                ctx.load(winbuf, 0, 8)
            yield
            ctx.win_unlock_all(win)
            yield ctx.win_free(win)

        det = OurDetector()
        World(2, [det]).run(program)
        assert det.reports_total == 1

    def test_same_op_merges_in_bst(self):
        """Adjacent same-op accumulates coalesce like any same-site access."""
        from repro.intervals import DebugInfo

        def program(ctx):
            win = yield ctx.win_allocate("w", 64, INT64)
            buf = ctx.alloc("buf", 64, INT64, rma_hint=True)
            ctx.win_lock_all(win)
            if ctx.rank == 0:
                d = DebugInfo("acc.c", 5)
                for i in range(16):
                    ctx.accumulate(win, 1, i, buf, i, 1, op="sum", debug=d)
            ctx.win_unlock_all(win)
            yield ctx.win_free(win)

        det = OurDetector()
        World(2, [det]).run(program)
        assert det.node_stats().max_nodes_per_rank[1] == 1

    def test_different_op_does_not_merge(self):
        from repro.intervals import DebugInfo

        def program(ctx):
            win = yield ctx.win_allocate("w", 64, INT64)
            buf = ctx.alloc("buf", 64, INT64, rma_hint=True)
            ctx.win_lock_all(win)
            if ctx.rank == 0:
                d = DebugInfo("acc.c", 5)
                ctx.accumulate(win, 1, 0, buf, 0, 4, op="sum", debug=d)
                ctx.accumulate(win, 1, 4, buf, 4, 4, op="max", debug=d)
            ctx.win_unlock_all(win)
            yield ctx.win_free(win)

        det = OurDetector()
        World(2, [det]).run(program)
        assert det.node_stats().max_nodes_per_rank[1] == 2
