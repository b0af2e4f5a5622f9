"""Flat-store checkpoint encoding: tail table plus id tables, v1/v2 loads."""

import pickle
from array import array
from dataclasses import replace

from repro.bst.flat import FLAT_LAYOUT, FlatIntervalStore
from repro.intervals.intern import ACCUMS, SITES, access_to_rec
from repro.intervals.access import DebugInfo

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


def _rows(store):
    """One record (or None on a free slot) per row, the v1/v2 encoding."""
    return [None if t < 0 else (store._key[i], store._hi[i]) + store._tails[t]
            for i, t in enumerate(store._tid)]


def _v2_state(store):
    """What ``repro-flat-bst-v2`` wrote: list columns plus one record per
    row, with the id tables of the sites and accum ops they use."""
    state = store.save_state()
    recs = _rows(store)
    v2 = {k: list(v) if isinstance(v, array) else v
          for k, v in state.items() if k not in ("tid", "tails")}
    v2.update(layout="repro-flat-bst-v2", recs=recs)
    return v2


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


def test_previous_layout_still_loads():
    """``repro-flat-bst-v1`` stores carried resolved strings per record."""
    store = _store()
    recs = []
    for r in _rows(store):
        if r is None:
            recs.append(None)
            continue
        site = SITES.value(r[3])
        recs.append((r[0], r[1], r[2], site.filename, site.line, r[4], r[5],
                     r[6], ACCUMS.value(r[7]), r[8]))
    state = dict(_v2_state(store), layout="repro-flat-bst-v1", recs=recs)
    del state["sites"], state["accums"]
    clone = FlatIntervalStore.from_state(state)
    assert list(clone) == list(store)
    assert SITES.value(next(iter(clone))[3]) == DebugInfo("ckpt.c", 1)
    clone.check_invariants()


def test_v2_layout_still_loads():
    """``repro-flat-bst-v2`` stores copied one record per row."""
    store = _store()
    state = _v2_state(store)
    clone = FlatIntervalStore.from_state(state)
    assert list(clone) == list(store)
    clone.check_invariants()
    # every row, free slots included, holds what the live store's does
    assert clone._free == store._free and _rows(clone) == _rows(store)
    # and a v2 state from a process with other ids is remapped too
    shift = 10_000
    state["recs"] = [None if r is None else
                     r[:3] + (r[3] + shift,) + r[4:7] + (r[7] + shift, r[8])
                     for r in state["recs"]]
    state["sites"] = {i + shift: v for i, v in state["sites"].items()}
    state["accums"] = {i + shift: v for i, v in state["accums"].items()}
    assert list(FlatIntervalStore.from_state(state)) == list(store)


def test_bounds_past_int64_stay_lists():
    """A v1 JSON trace can carry an address no int64 column holds."""
    store = FlatIntervalStore()
    huge = 1 << 70
    store.insert(access_to_rec(acc(huge, huge + 8, RW)))
    state = store.save_state()
    assert isinstance(state["key"], list) and isinstance(state["tid"], array)
    clone = FlatIntervalStore.from_state(pickle.loads(pickle.dumps(state)))
    assert list(clone) == list(store)

