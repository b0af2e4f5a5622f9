"""Flat-store checkpoint encoding: tail table plus id tables, one layout."""

import pickle
from array import array
from dataclasses import replace

import pytest

from repro.bst.flat import FLAT_LAYOUT, FlatIntervalStore
from repro.intervals.intern import ACCUMS, access_to_rec

from ..conftest import RW, acc


def _store():
    store = FlatIntervalStore()
    for i in range(8):
        a = acc(10 * i, 10 * i + 4, RW, file="ckpt.c", line=i % 2)
        if i % 2:
            a = replace(a, accum_op=f"MPI_CKPT_OP{i % 4}", excl_epoch=2)
        if i == 5:  # a fragment of two ranks' accumulates
            a = replace(a, origin=((0, 1), (2, 0)))
        store.insert(access_to_rec(a))
    store.remove(next(iter(store)))  # a free row in the columns
    return store


def test_round_trip_is_exact():
    store = _store()
    state = store.save_state()
    assert state["layout"] == FLAT_LAYOUT
    # the int columns travel as typed arrays, the tails once each
    assert all(isinstance(state[k], array) for k in
               ("key", "hi", "left", "right", "height", "aug", "tid",
                "free"))
    assert len(state["tails"]) == len(set(state["tails"])) < len(store)
    clone = FlatIntervalStore.from_state(pickle.loads(pickle.dumps(state)))
    assert list(clone) == list(store)
    assert ((0, 1), (2, 0)) in {r[4] for r in clone}
    assert clone.save_state() == state
    clone.check_invariants()


def test_foreign_ids_are_remapped():
    """A checkpoint from a process that interned in another order: site
    and accum ids are remapped through the tail table, not per row."""
    store = _store()
    state = store.save_state()
    shift = 10_000
    state["tails"] = [t[:1] + (t[1] + shift,) + t[2:5] + (t[5] + shift,)
                      + t[6:] for t in state["tails"]]
    state["sites"] = {i + shift: v for i, v in state["sites"].items()}
    state["accums"] = {i + shift: v for i, v in state["accums"].items()}
    clone = FlatIntervalStore.from_state(state)
    assert list(clone) == list(store)
    assert clone._tid == store._tid
    assert {ACCUMS.value(r[7]) for r in clone} == {
        None, "MPI_CKPT_OP1", "MPI_CKPT_OP3"}
    clone.check_invariants()


def test_state_carrying_balanced_loads():
    """A state written while the store had a ``balanced`` option (always
    True) loads as the same store, and is saved without it."""
    store = _store()
    state = store.save_state()
    assert "balanced" not in state
    clone = FlatIntervalStore.from_state(dict(state, balanced=True))
    assert list(clone) == list(store)
    assert clone.save_state() == state
    clone.check_invariants()


@pytest.mark.parametrize("layout", ["repro-flat-bst-v1", "repro-flat-bst-v2"])
def test_older_layouts_refused(layout):
    """Only ``repro-flat-bst-v3`` loads: the v1 and v2 layouts (one
    record per row) raise, which a resumed run reports as an unusable
    checkpoint."""
    state = _store().save_state()
    with pytest.raises(ValueError, match=layout):
        FlatIntervalStore.from_state(dict(state, layout=layout))
