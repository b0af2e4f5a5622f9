"""Exhaustive tests of the Table-1 combination rules."""

import pytest

from repro.intervals import AccessType, Interval, combine_accesses, combined_type
from repro.intervals.combine import MIXED_ACCUM_OP, table1_rows
from repro.intervals.conflict import is_race
from tests.conftest import LR, LW, RR, RW, acc

ALL = [LR, LW, RR, RW]


class TestCombinedType:
    def test_rma_prevails_over_local(self):
        assert combined_type(LR, RR) == (RR, 2)
        assert combined_type(RR, LR) == (RR, 1)
        assert combined_type(LW, RR) == (RR, 2)

    def test_write_prevails_over_read(self):
        assert combined_type(LR, LW) == (LW, 2)
        assert combined_type(LW, LR) == (LW, 1)
        assert combined_type(RR, RW) == (RW, 2)
        assert combined_type(RW, RR) == (RW, 1)

    def test_tie_keeps_most_recent(self):
        for t in ALL:
            assert combined_type(t, t) == (t, 2)

    def test_rma_write_always_wins(self):
        for t in ALL:
            assert combined_type(t, RW)[0] == RW
            assert combined_type(RW, t)[0] == RW

    @pytest.mark.parametrize("stored", ALL)
    @pytest.mark.parametrize("new", ALL)
    def test_result_dominates_both(self, stored, new):
        result, which = combined_type(stored, new)
        # the combined type is at least as strong as either input
        assert result.is_rma >= stored.is_rma or result.is_write >= stored.is_write
        assert result.is_rma >= max(stored.is_rma, new.is_rma) or \
            result.is_write >= max(stored.is_write, new.is_write)
        assert which in (1, 2)

    @pytest.mark.parametrize("stored", ALL)
    @pytest.mark.parametrize("new", ALL)
    def test_exact_dominance(self, stored, new):
        result, _ = combined_type(stored, new)
        key = lambda t: (t.is_rma, t.is_write)
        assert key(result) == max(key(stored), key(new))


class TestCombineAccesses:
    def test_intersection_geometry(self):
        stored = acc(2, 13, RR, line=11)
        new = acc(7, 9, LR, line=12)
        frag = combine_accesses(stored, new)
        assert frag.interval == Interval(7, 9)
        assert frag.type == RR  # RMA prevails
        assert frag.debug == stored.debug  # stored won -> stored's line

    def test_new_wins_takes_new_debug(self):
        stored = acc(2, 13, LR, line=11)
        new = acc(7, 9, RW, line=12, origin=1)
        frag = combine_accesses(stored, new)
        assert frag.type == RW
        assert frag.debug.line == 12
        assert frag.origin == 1

    def test_disjoint_raises(self):
        with pytest.raises(ValueError):
            combine_accesses(acc(2, 5, LR), acc(6, 9, LR))


class TestMixedAccumulates:
    """Combination must not launder the atomicity exemption.

    Regression for a fuzzer-found miss: same-origin Accumulate(sum)
    then Accumulate(max) fragment without racing (accumulate ordering),
    but if the fragment inherited the winner's single op, a later
    cross-origin Accumulate(max) would wrongly pass the same-op
    exemption of :func:`is_race` and a real race (vs the absorbed sum)
    would go unreported.
    """

    @staticmethod
    def _acc_access(op, origin=0, line=1):
        return acc(0, 8, RW, line=line, origin=origin).replace(accum_op=op)

    def test_same_op_fragment_keeps_the_op(self):
        frag = combine_accesses(self._acc_access("sum", line=1),
                                self._acc_access("sum", line=2))
        assert frag.accum_op == "sum" and frag.is_atomic

    def test_mixed_ops_fragment_is_marked(self):
        frag = combine_accesses(self._acc_access("sum", line=1),
                                self._acc_access("max", line=2))
        assert frag.accum_op == MIXED_ACCUM_OP
        assert frag.is_atomic  # same-origin ordering must survive

    def test_atomic_with_nonatomic_is_marked(self):
        stored = acc(0, 8, LR, line=1)  # local read, then same-origin acc
        frag = combine_accesses(stored, self._acc_access("max", line=2))
        assert frag.accum_op == MIXED_ACCUM_OP

    def test_marked_fragment_races_with_cross_origin_same_op(self):
        frag = combine_accesses(self._acc_access("sum", origin=0),
                                self._acc_access("max", origin=0))
        later = self._acc_access("max", origin=1, line=3)
        assert is_race(frag, later)

    def test_marked_fragment_exempt_same_origin(self):
        frag = combine_accesses(self._acc_access("sum", origin=0),
                                self._acc_access("max", origin=0))
        later = self._acc_access("min", origin=0, line=3)
        assert not is_race(frag, later)

    def test_detector_end_to_end_catches_the_fuzz_schedule(self):
        """rank2: acc sum; rank2: acc max; rank0: acc max — a race."""
        from repro.bst import IntervalBST
        from repro.core import insert_access

        bst = IntervalBST()
        assert not insert_access(self._acc_access("sum", origin=2),
                                 bst).has_race
        assert not insert_access(
            self._acc_access("max", origin=2, line=2), bst).has_race
        outcome = insert_access(
            self._acc_access("max", origin=0, line=3), bst)
        assert outcome.has_race


class TestMixedOriginFragment:
    """Same-op accumulates from different origins combine into a fragment
    whose origin is the set of their ``(rank, flush_gen)`` pairs.  Keeping
    the newest access's origin would let a later different-op accumulate
    from that origin pass the same-origin ordering exemption of
    :func:`is_race`, hiding its race with the other origin's accumulate."""

    _acc_access = staticmethod(TestMixedAccumulates._acc_access)

    def test_cross_origin_fragment_keeps_every_origin(self):
        frag = combine_accesses(
            self._acc_access("max", origin=2).replace(flush_gen=3),
            self._acc_access("max", origin=0, line=2))
        assert frag.origin == ((0, 0), (2, 3))
        assert frag.accum_op == "max"  # the same-op exemption survives
        assert not is_race(frag, self._acc_access("max", origin=1, line=3))

    def test_origin_set_grows_with_each_origin(self):
        frag = combine_accesses(self._acc_access("max", origin=0),
                                self._acc_access("max", origin=2, line=2))
        frag = combine_accesses(
            frag, self._acc_access("max", origin=0, line=3).replace(
                flush_gen=1))
        frag = combine_accesses(frag, self._acc_access("max", origin=1,
                                                       line=4))
        # one pair per rank, with its newest flush generation
        assert frag.origin == ((0, 1), (1, 0), (2, 0))

    def test_same_origin_fragment_keeps_its_origin(self):
        frag = combine_accesses(self._acc_access("max", origin=2),
                                self._acc_access("sum", origin=2, line=2))
        assert frag.origin == 2

    def test_marked_fragment_races_with_either_origin_other_op(self):
        frag = combine_accesses(self._acc_access("max", origin=0),
                                self._acc_access("max", origin=2, line=2))
        for origin in (0, 2):
            assert is_race(frag, self._acc_access("sum", origin=origin,
                                                  line=3))


class TestTable1Rendering:
    def test_shape(self):
        rows = table1_rows()
        assert len(rows) == 4
        assert all(len(r) == 5 for r in rows)

    def test_matches_paper_table1(self):
        # paper Table 1, cell for cell
        expected = [
            ["Local_R-1", "Local_R-2", "Local_W-2", "RMA_R-2", "RMA_W-2"],
            ["Local_W-1", "Local_W-1", "Local_W-2", "RMA_R-2", "RMA_W-2"],
            ["RMA_R-1", "RMA_R-1", "x", "RMA_R-2", "x"],
            ["RMA_W-1", "x", "x", "x", "x"],
        ]
        assert table1_rows() == expected
