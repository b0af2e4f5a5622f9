"""Our contribution: RMA-Analyzer with the new insertion algorithm.

This is the paper's §4 detector end to end:

* the race check uses the *correct* interval-tree overlap query and the
  order-aware predicate (§5.2 fix for ``Load``-then-``MPI_Get``),
* insertion runs Algorithm 1 — fragmentation (§4.1) keeps the stored
  accesses disjoint, merging (§4.2) keeps the BST small,
* ``MPI_Win_flush(_all)`` is handled precisely per the §6 discussion:
  a flush bumps the issuer's generation; a stored RMA access whose
  generation predates its issuer's current flush is *completed*, so a
  later access by the **same** issuer no longer races with it.  Other
  ranks' accesses still do — clearing the whole BST at a flush would be
  the false-negative trap §6 warns about.
* ``MPI_Barrier`` after a flush is the §6-recommended full sync: at a
  barrier, completed accesses (local ones, and flushed RMA ones) are
  pruned — everything after the barrier is happens-after them.
"""

from __future__ import annotations

from typing import Callable

from .. import obs
from ..bst.interval_tree import IntervalBST
from ..intervals import MemoryAccess, is_race
from .base import COMPLETED_LOCALLY, OurDetectorBase
from .insertion import insert_access

__all__ = ["OurDetector"]


class OurDetector(OurDetectorBase):
    """RMA-Analyzer + the paper's new insertion algorithm (§4)."""

    store_cls = IntervalBST

    # -- predicate with the §6 flush exemption -----------------------------------

    def _predicate(self, wid: int) -> Callable[[MemoryAccess, MemoryAccess], bool]:
        gens = self._flush_gens

        def pred(stored: MemoryAccess, new: MemoryAccess) -> bool:
            if stored.is_rma and stored.origin == new.origin:
                if stored.flush_gen == COMPLETED_LOCALLY:
                    return False  # completed by the issuer's MPI_Wait
                if stored.flush_gen < gens.get((wid, stored.origin), 0):
                    return False  # completed by the issuer's own flush
            return is_race(stored, new)

        return pred

    # -- the new insertion algorithm -------------------------------------------------

    def _record(self, rank: int, wid: int, access: MemoryAccess) -> None:
        bst = self._store(rank, wid)
        self._processed += 1
        reg = obs.active()
        enabled = reg.enabled
        if enabled:
            if reg is not self._obs_reg:
                self._bind_obs(reg)
            self._c_events.value += 1
        stats = bst.stats
        w0 = stats.comparisons + stats.rotations
        outcome = insert_access(
            access, bst, predicate=self._predicate(wid),
            merge=self.enable_merge,
        )
        self.work_units += stats.comparisons + stats.rotations - w0
        if outcome.has_race:
            assert outcome.conflict is not None
            self._report(rank, wid, outcome.conflict, access,
                         phase="data_race_detection")
        elif enabled:
            self._c_fragments.value += len(outcome.merged)
            removed = len(outcome.removed)
            if removed and len(outcome.merged) < removed + 1:
                self._c_merges.value += removed + 1 - len(outcome.merged)
        self._note_high_water((rank, wid))

    # -- §6 synchronization handling -----------------------------------------------------

    def on_request_complete(self, rank: int, wid: int, access) -> None:
        """MPI_Wait on a request: the op's *origin side* is complete.

        The target side is NOT (passive target: local completion only —
        the §6 family of subtleties), so only the origin-side access is
        marked; races with other ranks stay detectable.
        """
        bst = self._stores.get((rank, wid))
        if bst is None:
            return
        for stored in bst.find_overlapping(access.interval):
            if stored == access:
                bst.remove(stored)
                done = MemoryAccess(
                    stored.interval, stored.type, stored.debug,
                    stored.origin, stored.seq, COMPLETED_LOCALLY,
                    stored.accum_op, stored.excl_epoch,
                )
                bst.insert(done)
                return

    def on_barrier(self) -> None:
        """Prune completed accesses: they happen-before everything coming."""
        for (rank, wid), bst in self._stores.items():
            if not len(bst):
                continue
            survivors = []
            pruned = False
            for acc in bst:
                if acc.type.is_local:
                    pruned = True
                    continue
                if self._flushed(wid, acc.origin, acc.flush_gen):
                    pruned = True
                    continue
                survivors.append(acc)
            if pruned:
                self._note_high_water((rank, wid))
                w0 = bst.stats.comparisons + bst.stats.rotations
                bst.clear()
                for acc in survivors:
                    bst.insert(acc)
                self.work_units += (
                    bst.stats.comparisons + bst.stats.rotations - w0
                    + len(survivors)
                )
