"""Property-based invariants of the flat struct-of-arrays core.

The flat twin of ``test_invariants.py``: the same §4 storage properties
(disjointness, merge maximality, coverage, Table-1 byte-wise dominance)
checked against :class:`repro.core.FlatDetector`'s Algorithm-1 path and
:class:`repro.bst.FlatIntervalStore`'s sorted blocks, plus the
flat-only obligations:

* block invariants (``check_invariants``: sorted disjoint rows, block
  sizes, the per-block first-key / last-hi index, the tail table, the
  last-insert memo),
* ``save_state`` → ``load_state`` round-trips the rows and the tail
  table, and the restored store behaves identically going forward,
* differential: for any access sequence, the flat store holds exactly
  the same intervals/types/sites as the object ``IntervalBST``, with
  identical store-independent counters (everything but the tree's
  comparisons and rotations; ``test_block_store.py`` drives the store
  itself against a model).

``race_check`` is forced off so every access inserts — these properties
are about storage, not verdicts (same convention as the object suite).
"""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro import obs
from repro.bst import FlatIntervalStore, IntervalBST
from repro.core import FlatDetector
from repro.core.insertion import insert_access
from repro.intervals import AccessType, DebugInfo, Interval, MemoryAccess
from repro.intervals.intern import SITES

_NO_RACE = lambda stored, new: False  # noqa: E731 - terse predicate


@st.composite
def accesses(draw) -> MemoryAccess:
    lo = draw(st.integers(min_value=0, max_value=48))
    length = draw(st.integers(min_value=1, max_value=16))
    type_ = draw(st.sampled_from(list(AccessType)))
    file_ = draw(st.sampled_from(["a.c", "b.c"]))
    line = draw(st.integers(min_value=1, max_value=3))
    origin = draw(st.integers(min_value=0, max_value=2))
    return MemoryAccess(
        Interval(lo, lo + length), type_, DebugInfo(file_, line), origin
    )


access_lists = st.lists(accesses(), min_size=1, max_size=24)


def _ingest_all(seq) -> FlatIntervalStore:
    det = FlatDetector()
    det.race_check = False
    reg = obs.active()
    for acc in seq:
        det._ingest(0, 0, acc, reg)
    return det._store(0, 0)


def _covered_bytes(recs):
    out = set()
    for r in recs:
        out.update(range(r[0], r[1]))
    return out


@given(access_lists)
def test_stored_records_pairwise_disjoint(seq):
    store = _ingest_all(seq)
    stored = store.snapshot()  # in key order
    for prev, cur in zip(stored, stored[1:]):
        assert prev[1] <= cur[0], (prev, cur)


@given(access_lists)
def test_merging_is_maximal(seq):
    """No two adjacent stored records share (type, site, provenance)."""
    store = _ingest_all(seq)
    stored = store.snapshot()
    for prev, cur in zip(stored, stored[1:]):
        mergeable = (
            prev[1] == cur[0]          # adjacent
            and prev[2] == cur[2]      # type
            and prev[3] == cur[3]      # interned site
            and prev[4] == cur[4]      # origin
            and prev[6] == cur[6]      # flush generation
            and prev[7] == cur[7]      # accumulate op
        )
        assert not mergeable, (prev, cur)


@given(access_lists)
def test_fragments_cover_exactly_the_input_union(seq):
    store = _ingest_all(seq)
    want = _covered_bytes((a.interval.lo, a.interval.hi) for a in seq)
    assert _covered_bytes(store.snapshot()) == want


def _dominance(t: AccessType):
    """Table-1 key: RMA prevails over local, then WRITE over READ."""
    return (t.is_rma, t.is_write)


@given(access_lists)
def test_bytewise_type_dominance(seq):
    store = _ingest_all(seq)
    expected = {}
    for acc in seq:
        for byte in range(acc.interval.lo, acc.interval.hi):
            cur = expected.get(byte)
            if cur is None or _dominance(acc.type) > _dominance(cur):
                expected[byte] = acc.type
    for rec in store.snapshot():
        for byte in range(rec[0], rec[1]):
            assert rec[2] == expected[byte], (byte, rec)


@given(access_lists)
def test_block_invariants_after_insertions(seq):
    _ingest_all(seq).check_invariants()


@given(access_lists, st.data())
def test_block_invariants_after_removals(seq, data):
    store = _ingest_all(seq)
    stored = store.snapshot()
    if stored:
        victims = data.draw(
            st.lists(st.sampled_from(stored), max_size=len(stored),
                     unique=True)
        )
        for rec in victims:
            assert store.remove(rec)
        store.check_invariants()


def _store_independent(stats):
    """Every counter but the store's own work (probes vs descents)."""
    return {k: v for k, v in stats.to_dict().items()
            if k not in ("comparisons", "rotations")}


@given(access_lists)
def test_flat_matches_object_store(seq):
    """Differential: same stored intervals/types/sites AND the same
    store-independent counters as the object core on any input."""
    store = _ingest_all(seq)
    bst = IntervalBST()
    for acc in seq:
        insert_access(acc, bst, predicate=_NO_RACE)
    flat = [(r[0], r[1], r[2], SITES.value(r[3]), r[4])
            for r in store.snapshot()]
    obj = sorted(
        (a.interval.lo, a.interval.hi, a.type, a.debug, a.origin)
        for a in bst.snapshot()
    )
    assert flat == obj
    assert _store_independent(store.stats) == _store_independent(bst.stats)
    assert store.stats.rotations == 0


def _columns(store: FlatIntervalStore):
    return (len(store), list(store), store._tails, store._tail_ids)


@given(access_lists, accesses())
def test_snapshot_restore_roundtrip(seq, extra):
    """Rows and tail table round-trip exactly, and the restored store
    behaves identically going forward (rows, stats deltas)."""
    store = _ingest_all(seq)
    state = store.save_state()
    clone = FlatIntervalStore.from_state(state)
    assert _columns(clone) == _columns(store)
    assert clone.stats.to_dict() == store.stats.to_dict()
    clone.check_invariants()

    # future behavior: one more Algorithm-1 ingest lands both stores on
    # the same rows with the same stats
    for s in (store, clone):
        det = FlatDetector()
        det.race_check = False
        det._stores[(0, 0)] = s
        det._ingest(0, 0, extra, obs.active())
    assert _columns(clone) == _columns(store)
    assert clone.stats.to_dict() == store.stats.to_dict()
