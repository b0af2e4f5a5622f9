"""The block store against a brute-force model.

:class:`~repro.bst.flat.FlatIntervalStore` keeps disjoint records in
sorted typed-array blocks.  Here a subclass shrinks the blocks to four
rows, so a few dozen records exercise every block path: splits,
emptied blocks, queries that run across several blocks, tail-table
compaction and the last-insert memo.

A Hypothesis state machine drives the store with inserts (Algorithm
1's precondition holds: the records a new one overlaps are removed
first), removals of stored and absent records, overlap queries,
``select``, ``clear`` and mid-stream ``save_state``/``load_state``
round trips, and compares every answer with a sorted list.  Two twins
take the same operations and are never reloaded, one with the tiny
blocks and one with the default blocks; every counter, bisect probes
included, must equal theirs, because the probe charge depends on the
store's size alone.
"""

import bisect
import pickle

from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.bst.flat import FlatIntervalStore
from repro.intervals.access import DebugInfo
from repro.intervals.intern import SITES


class TinyBlocks(FlatIntervalStore):
    _BLOCK = 4


SITE_IDS = [SITES.id_of(DebugInfo("blocks.c", line)) for line in (1, 2, 3)]


def _rec(lo, hi, site=0, gen=0):
    """An RMA write from rank 1 at ``site`` under flush generation
    ``gen`` (distinct generations make distinct tails)."""
    return (lo, hi, 3, SITE_IDS[site], 1, 0, gen, 0, None)


def _overlapping(model, lo, hi):
    return [r for r in model if r[0] < hi and lo < r[1]]


def _filled(n, store_cls=TinyBlocks):
    """``n`` records ``[10 i, 10 i + 5)``, inserted in key order."""
    store = store_cls()
    for i in range(n):
        store.insert(_rec(10 * i, 10 * i + 5))
    return store


# -- each block path, once ----------------------------------------------------


def test_splits_keep_blocks_small_and_sorted():
    store = _filled(20)
    assert len(store._los) >= 5
    assert all(len(b) <= TinyBlocks._BLOCK for b in store._los)
    assert store.snapshot() == [_rec(10 * i, 10 * i + 5) for i in range(20)]
    store.check_invariants()


def test_emptied_block_is_dropped():
    store = _filled(20)
    nblocks = len(store._los)
    for lo in list(store._los[1]):
        assert store.remove(_rec(lo, lo + 5))
        store.check_invariants()
    assert len(store._los) == nblocks - 1


def test_query_across_three_blocks():
    store = _filled(20)
    got = store.find_overlapping(32, 171)  # rows 3 .. 17
    assert got == [_rec(10 * i, 10 * i + 5) for i in range(3, 18)]
    starts = {bisect.bisect_right(store._mins, r[0]) for r in got}
    assert len(starts) >= 3
    assert store.find_overlapping(5, 10) == []  # a gap between two rows
    assert store.find_overlapping(195, 400) == []  # past the last row


def test_tail_table_compacts_to_live_rows():
    store = TinyBlocks()
    for gen in range(40):  # one new tail per round, one live row
        store.insert(_rec(0, 4, gen=gen))
        assert store.remove(_rec(0, 4, gen=gen))
    store.insert(_rec(0, 4, gen=99))
    assert len(store._tails) <= 2 * len(store) + 8
    assert store._tails[store._tids[0][0]] == _rec(0, 4, gen=99)[2:]
    store.check_invariants()


def test_memo_forgotten_with_its_row():
    store = _filled(6)
    a = _rec(100, 104)
    store.insert(a)
    assert store.find_overlapping(100, 101)[0] is a  # the memo's tuple
    assert store.remove(a)  # identity: no tail compare
    assert store._last_rec is None
    assert store.find_overlapping(100, 101) == []
    assert not store.remove(a)
    b = _rec(100, 104, site=1)
    store.insert(b)
    assert not store.remove(a)  # same bounds, another tail
    assert store.remove(tuple(list(b)))  # an equal copy
    store.check_invariants()


# -- the state machine --------------------------------------------------------


bounds = st.integers(min_value=0, max_value=160)
lengths = st.integers(min_value=1, max_value=12)


class BlockStoreMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.store = TinyBlocks()
        self.twins = (TinyBlocks(), FlatIntervalStore())
        self.model = []  # the stored records, sorted

    def _stores(self):
        return (self.store,) + self.twins

    @rule(lo=bounds, length=lengths, site=st.integers(0, 2),
          gen=st.integers(0, 30))
    def insert(self, lo, length, site, gen):
        rec = _rec(lo, lo + length, site, gen)
        for old in _overlapping(self.model, lo, lo + length):
            for store in self._stores():
                assert store.remove(old)
            self.model.remove(old)
        for store in self._stores():
            store.insert(rec)
        bisect.insort(self.model, rec)

    @precondition(lambda self: self.model)
    @rule(data=st.data(), copy=st.booleans())
    def remove_stored(self, data, copy):
        rec = data.draw(st.sampled_from(self.model))
        if copy:  # an equal tuple, not the inserted one
            rec = tuple(list(rec))
        for store in self._stores():
            assert store.remove(rec)
        self.model.remove(rec)

    @rule(lo=bounds, length=lengths, gen=st.integers(0, 30))
    def remove_absent(self, lo, length, gen):
        rec = _rec(lo, lo + length, 2, gen)
        if rec in self.model:
            return
        for store in self._stores():
            assert not store.remove(rec)

    @rule(lo=bounds, length=st.integers(min_value=1, max_value=120))
    def query(self, lo, length):
        want = _overlapping(self.model, lo, lo + length)
        for store in self._stores():
            assert store.find_overlapping(lo, lo + length) == want

    @rule(gen=st.integers(0, 30))
    def select(self, gen):
        want = [r for r in self.model if r[6] >= gen]
        for store in self._stores():
            assert store.select(lambda t: t[4] >= gen) == want

    @rule()
    def clear(self):
        for store in self._stores():
            store.clear()
        self.model = []

    @rule()
    def reload(self):
        state = pickle.loads(pickle.dumps(self.store.save_state()))
        self.store = TinyBlocks.from_state(state)

    @invariant()
    def matches_the_model_and_the_twins(self):
        self.store.check_invariants()
        stats = self.store.stats.to_dict()
        assert stats["rotations"] == 0
        for store in self._stores():
            assert list(store) == self.model
            assert len(store) == len(self.model)
            assert store.stats.to_dict() == stats


TestBlockStoreMachine = BlockStoreMachine.TestCase
