"""Shared machinery of the BST-based detectors.

Both the original RMA-Analyzer and the paper's contribution keep one
interval BST per (rank, window): "When an MPI window is created, each
MPI process creates a BST.  The BST is then filled with all memory
locations the owner process or other processes accesses" (§3).  The
tools differ in *how* they search and insert — exactly the knobs the
subclasses override:

* ``store_cls``             — the store type: the node-linked
  :class:`~repro.bst.interval_tree.IntervalBST` or the flat
  :class:`~repro.bst.flat.FlatIntervalStore`,
* ``_check(bst, access)``   — race search strategy,
* ``_insert(bst, access)``  — storage strategy (append vs Algorithm 1),
* flush/barrier handling    — §6 semantics.

Local accesses of a rank are routed to its BST of every window with an
open epoch (accesses outside any epoch cannot race with one-sided
traffic and are dropped, matching the tool's "collects all memory
accesses that are contained within each epoch").

This module is the window/epoch bookkeeping only: it imports no store,
so the flat core loads neither the node-linked AVL tree nor the object
core's insertion code.
"""

from __future__ import annotations

import copy
from typing import TYPE_CHECKING, Dict, Optional, Set, Tuple

from ..aliasing import AliasFilter, FilterPolicy
from ..bst.stats import TreeStats
from ..intervals import MemoryAccess
from ..mpi.memory import RegionInfo
from .base import Detector, NodeStats

if TYPE_CHECKING:
    from ..bst.interval_tree import IntervalBST
    from ..mpi.window import Window

__all__ = ["BstDetector"]

Key = Tuple[int, int]  # (rank, wid)


class BstDetector(Detector):
    """Base of the two RMA-Analyzer variants (original and improved)."""

    #: the per-operation target notification (an MPI_Send with the access
    #: descriptor: interval, type, debug info — a small fixed message)
    rma_notify_bytes: int = 48

    #: the per-(rank, window) store type (subclasses set it): built as
    #: ``store_cls()``, checkpointed through its ``save_state()`` /
    #: ``from_state()``
    store_cls: type

    def __init__(
        self,
        *,
        abort_on_race: bool = False,
        filter_policy: FilterPolicy = FilterPolicy.ALIAS,
    ) -> None:
        super().__init__(abort_on_race=abort_on_race)
        self._stores: Dict[Key, object] = {}
        self._open_epochs: Set[Key] = set()
        self._windows: Dict[int, Window] = {}
        self.filter = AliasFilter(filter_policy)
        self._seq = 0
        self._processed = 0
        # high-water node counts survive clears and window frees
        self._max_nodes: Dict[Key, int] = {}
        # tree-op totals of stores dropped at window free (the live
        # stores' stats are summed on top at publication time)
        self._closed_stats = TreeStats()

    # -- storage plumbing ---------------------------------------------------------

    def _store(self, rank: int, wid: int):
        key = (rank, wid)
        bst = self._stores.get(key)
        if bst is None:
            bst = self.store_cls()
            self._stores[key] = bst
        return bst

    def _note_high_water(self, key: Key) -> None:
        bst = self._stores.get(key)
        if bst is not None:
            prev = self._max_nodes.get(key, 0)
            if bst.stats.max_size > prev:
                self._max_nodes[key] = bst.stats.max_size

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    # -- strategy points (subclasses implement) --------------------------------------

    def _check(self, bst: IntervalBST, access: MemoryAccess, rank: int, wid: int) -> None:
        raise NotImplementedError

    def _insert(self, bst: IntervalBST, access: MemoryAccess) -> None:
        raise NotImplementedError

    def _record(self, rank: int, wid: int, access: MemoryAccess) -> None:
        """Check-then-insert one access into one store (the §3 two traversals)."""
        bst = self._store(rank, wid)
        self._processed += 1
        self._count_event()
        stats = bst.stats
        w0 = stats.comparisons + stats.rotations
        self._check(bst, access, rank, wid)
        self._insert(bst, access)
        self.work_units += stats.comparisons + stats.rotations - w0
        self._note_high_water((rank, wid))

    # -- hooks ---------------------------------------------------------------------------

    def on_win_create(self, window: Window) -> None:
        self._windows[window.wid] = window

    def on_win_free(self, wid: int) -> None:
        for key in [k for k in self._stores if k[1] == wid]:
            self._note_high_water(key)
            self._closed_stats.merge(self._stores[key].stats)
            del self._stores[key]
        self._windows.pop(wid, None)

    def on_epoch_start(self, rank: int, wid: int) -> None:
        self._open_epochs.add((rank, wid))

    def on_epoch_end(self, rank: int, wid: int) -> None:
        key = (rank, wid)
        self._open_epochs.discard(key)
        bst = self._stores.get(key)
        if bst is not None:
            self._note_high_water(key)
            bst.clear()

    def on_local(
        self, rank: int, access: MemoryAccess, region: RegionInfo
    ) -> None:
        if not self.filter.instrument(region):
            return
        routed = False
        for r, wid in list(self._open_epochs):
            if r == rank:
                self._record(rank, wid, access)
                routed = True
        if not routed:
            return  # outside all epochs: the tool does not track it

    def on_rma(
        self,
        op: str,
        rank: int,
        target: int,
        wid: int,
        origin_access: MemoryAccess,
        target_access: MemoryAccess,
        origin_region: RegionInfo,
        target_region: RegionInfo,
    ) -> None:
        # origin side, recorded locally by the issuing process
        self._record(rank, wid, origin_access)
        # target side, recorded at the target (delivered by the tool's
        # MPI_Send notification, costed by the interposition layer)
        self._record(target, wid, target_access)

    # -- checkpointing ---------------------------------------------------------

    def _encode_state(self, state: dict) -> dict:
        """Replace the stores with structure-preserving states.

        Node-linked trees would pickle recursively, so each store goes
        through its own ``save_state()`` — for :class:`IntervalBST` an
        iterative preorder encoding with its tie counter, for the flat
        store its rows as typed arrays — that also carries TreeStats,
        keeping the restored detector's future behavior (and published
        metrics) byte-identical.
        """
        state["_stores"] = {
            key: bst.save_state() for key, bst in self._stores.items()}
        state["_closed_stats"] = self._closed_stats.to_dict()
        state["filter"] = copy.copy(self.filter)
        return state

    def _decode_state(self, state: dict) -> dict:
        # checkpoints written while detectors took a ``balanced``
        # option carry it
        state.pop("_balanced", None)
        state["_stores"] = {
            key: self.store_cls.from_state(s)
            for key, s in state["_stores"].items()}
        state["_closed_stats"] = TreeStats.from_dict(state["_closed_stats"])
        return state

    def state_rows(self) -> int:
        return sum(len(bst) for bst in self._stores.values())

    # -- statistics -------------------------------------------------------------------------

    def node_stats(self) -> NodeStats:
        stats = NodeStats()
        for key, bst in self._stores.items():
            self._note_high_water(key)
        for (rank, wid), peak in self._max_nodes.items():
            stats.total_max_nodes += peak
            cur = stats.max_nodes_per_rank.get(rank, 0)
            stats.max_nodes_per_rank[rank] = max(cur, peak)
        stats.total_current_nodes = sum(len(b) for b in self._stores.values())
        stats.accesses_processed = self._processed
        stats.accesses_filtered = self.filter.filtered
        return stats

    def _publish_extra(self, reg) -> None:
        """Tree operation totals, live stores plus freed ones (Fig. 10)."""
        tool = self.name
        total = TreeStats()
        total.merge(self._closed_stats)
        for bst in self._stores.values():
            total.merge(bst.stats)
        reg.counter("bst.comparisons", tool=tool).add(total.comparisons)
        reg.counter("bst.rotations", tool=tool).add(total.rotations)
        reg.counter("bst.inserts", tool=tool).add(total.inserts)
        reg.counter("bst.removals", tool=tool).add(total.removals)
        reg.counter("bst.queries", tool=tool).add(total.queries)
        # the query path accounts fan-out in TreeStats buckets (see
        # repro.bst.avl); fold them into the histogram bucket for bucket
        hist = reg.histogram("bst.query_fanout", tool=tool)
        assert len(hist.counts) == len(total.fanout)
        for i, n in enumerate(total.fanout):
            hist.counts[i] += n
        hist.n += total.queries
        hist.total += total.query_hits
        if total.max_fanout > hist.vmax:
            hist.vmax = total.max_fanout

    def bst_of(self, rank: int, wid: int) -> Optional[IntervalBST]:
        """Direct access for tests and figure drivers."""
        return self._stores.get((rank, wid))

    # -- forensics ----------------------------------------------------------------

    def forensic_sync_state(self, wid: int) -> dict:
        """Which ranks hold an open epoch on ``wid``, and window liveness."""
        return {
            "open_epochs": sorted(
                r for (r, w) in self._open_epochs if w == wid),
            "window_known": wid in self._windows,
        }

    def forensic_tree_state(self, rank: int, wid: int) -> Optional[dict]:
        """The racing (rank, window) store's counters right now.

        Only the counters every store keeps alike: comparisons and
        rotations depend on the store's layout (a tree descent or a
        bisect), so the object tree and the flat store would disagree.
        """
        bst = self._stores.get((rank, wid))
        if bst is None:
            return None
        stats = bst.stats
        return {
            "nodes": len(bst),
            "max_size": stats.max_size,
            "inserts": stats.inserts,
            "removals": stats.removals,
            "queries": stats.queries,
            "query_hits": stats.query_hits,
        }
