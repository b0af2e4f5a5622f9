"""Flat-store checkpoint encoding: ids travel with their value tables."""

from repro.bst.flat import FLAT_LAYOUT, FlatIntervalStore
from repro.intervals.intern import ACCUMS, SITES, access_to_rec
from repro.intervals.access import DebugInfo

from ..conftest import RW, acc


def _store():
    store = FlatIntervalStore()
    for i in range(6):
        store.insert(access_to_rec(acc(10 * i, 10 * i + 4, RW,
                                       file="ckpt.c", line=i)))
    store.remove(next(iter(store)))  # a free row in the columns
    return store


def test_round_trip_is_exact():
    store = _store()
    state = store.save_state()
    assert state["layout"] == FLAT_LAYOUT
    clone = FlatIntervalStore.from_state(state)
    assert list(clone) == list(store)
    assert clone.save_state() == state


def test_foreign_ids_are_remapped():
    """A checkpoint from a process that interned in another order."""
    store = _store()
    state = store.save_state()
    shift = 10_000
    state["recs"] = [None if r is None else
                     r[:3] + (r[3] + shift,) + r[4:] for r in state["recs"]]
    state["sites"] = {i + shift: v for i, v in state["sites"].items()}
    clone = FlatIntervalStore.from_state(state)
    assert list(clone) == list(store)


def test_previous_layout_still_loads():
    """``repro-flat-bst-v1`` stores carried resolved strings per record."""
    store = _store()
    state = store.save_state()
    recs = []
    for r in state["recs"]:
        if r is None:
            recs.append(None)
            continue
        site = SITES.value(r[3])
        recs.append((r[0], r[1], r[2], site.filename, site.line, r[4], r[5],
                     r[6], ACCUMS.value(r[7]), r[8]))
    state = dict(state, layout="repro-flat-bst-v1", recs=recs)
    del state["sites"], state["accums"]
    clone = FlatIntervalStore.from_state(state)
    assert list(clone) == list(store)
    assert SITES.value(next(iter(clone))[3]) == DebugInfo("ckpt.c", 1)
