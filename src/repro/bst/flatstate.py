"""The flat store's cold code: its checkpoint encoding and invariant check.

:class:`~repro.bst.flat.FlatIntervalStore` keeps only what Algorithm 1
runs per access; a checkpointed run (``--ckpt-dir``, every daemon job)
loads this module for :meth:`~repro.bst.flat.FlatIntervalStore.
save_state` / ``load_state``, and the tests for ``check_invariants``.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING, List

from ..intervals.access import DebugInfo
from ..intervals.intern import ACCUMS, SITES
from .flat import FLAT_LAYOUT
from .stats import TreeStats

if TYPE_CHECKING:
    from .flat import FlatIntervalStore

__all__ = ["check_invariants", "load_state", "save_state"]


def _joined(blocks: List[array], code: str) -> array:
    """One typed array of every block's rows, in order."""
    out = array(code)
    for block in blocks:
        out.extend(block)
    return out


def save_state(store: FlatIntervalStore) -> dict:
    """Portable ``repro-ckpt-v1`` encoding (layout ``repro-flat-blocks-v1``).

    The rows travel as three typed arrays (lower bounds, upper bounds,
    tail ids), the tail table as is.  Interned ids are process-local,
    so the id → value tables of the sites (filename, line) and accum
    ops go along, collected from the few tails rather than from every
    row; a store restored in another process re-interns those values
    and remaps its tails.  Block boundaries are not saved: nothing a
    store reports depends on them.
    """
    tails = list(store._tails)
    site_val = SITES.value
    accum_val = ACCUMS.value
    return {
        "layout": FLAT_LAYOUT,
        "lo": _joined(store._los, "q"),
        "hi": _joined(store._his, "q"),
        "tid": _joined(store._tids, "i"),
        "tails": tails,
        "sites": {t[1]: (site_val(t[1]).filename, site_val(t[1]).line)
                  for t in tails},
        "accums": {t[5]: accum_val(t[5]) for t in tails},
        "stats": store.stats.to_dict(),
    }


def load_state(store: FlatIntervalStore, state: dict) -> None:
    """Rebuild ``store`` from :func:`save_state` output (re-interning ids).

    Only layout ``repro-flat-blocks-v1`` loads; any other (the AVL
    store's ``repro-flat-bst-v3`` included) raises :class:`ValueError`,
    which a resumed run reports as an unusable checkpoint.  The rows
    are cut into full blocks.
    """
    layout = state.get("layout")
    if layout != FLAT_LAYOUT:
        raise ValueError(
            f"flat store cannot load layout {layout!r} "
            f"(expected {FLAT_LAYOUT!r})")
    lo = state["lo"]
    hi = state["hi"]
    tid = state["tid"]
    step = store._BLOCK
    cuts = range(0, len(lo), step)
    store._los = [lo[c:c + step] for c in cuts]
    store._his = [hi[c:c + step] for c in cuts]
    store._tids = [tid[c:c + step] for c in cuts]
    store._mins = [los[0] for los in store._los]
    store._maxs = [his[-1] for his in store._his]
    store._size = len(lo)
    site_id = SITES.id_of
    accum_id = ACCUMS.id_of
    sites = {i: site_id(DebugInfo(*v)) for i, v in state["sites"].items()}
    accums = {i: accum_id(v) for i, v in state["accums"].items()}
    tails = list(state["tails"])
    if any(i != j for i, j in sites.items()) or any(
            i != j for i, j in accums.items()):
        # another process interned in another order: remap the tails —
        # the rows keep their tail ids
        tails = [t[:1] + (sites[t[1]],) + t[2:5] + (accums[t[5]], t[6])
                 for t in tails]
    store._tails = tails
    store._tail_ids = {t: i for i, t in enumerate(tails)}
    store.stats = TreeStats.from_dict(state["stats"])
    store._forget_last()


def check_invariants(store: FlatIntervalStore) -> None:
    """Raise AssertionError on any structural violation."""
    los, his, tids = store._los, store._his, store._tids
    assert len(los) == len(his) == len(tids) == len(store._mins) == len(
        store._maxs), "block lists disagree in length"
    for b in range(len(los)):
        n = len(los[b])
        assert 0 < n <= store._BLOCK, f"block {b} holds {n} rows"
        assert len(his[b]) == len(tids[b]) == n, f"block {b} ragged"
        assert store._mins[b] == los[b][0], f"stale first key of block {b}"
        assert store._maxs[b] == his[b][-1], f"stale last hi of block {b}"
        assert all(0 <= t < len(store._tails) for t in tids[b]), (
            f"block {b} names a tail not in the table")
    assert store._size == sum(len(b) for b in los), "size disagrees"
    tails = store._tails
    assert store._tail_ids == {t: i for i, t in enumerate(tails)}, (
        "tail table and its index disagree")
    rows = [(lo, hi) for b in range(len(los))
            for lo, hi in zip(los[b], his[b])]
    assert all(0 <= lo < hi for lo, hi in rows), "empty interval stored"
    for (_, a_hi), (b_lo, _) in zip(rows, rows[1:]):
        assert a_hi <= b_lo, "stored records overlap or are out of order"
    last = store._last
    assert last < 0 or store._last_rec in list(store), (
        "the last-insert memo disagrees with its row")
    assert last < 0 or store._last_rec[0] == last, "memo key is stale"
