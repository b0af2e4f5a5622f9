"""Behavioural model of MUST-RMA (Schwitanski et al., Correctness'22).

MUST-RMA combines MUST's MPI-aware happens-before construction with
ThreadSanitizer as the underlying shared-memory race checker.  The
properties the paper measures are all modelled here:

* **Concurrent regions via vector clocks** — every access is stamped
  and checked against shadow memory under the happens-before relation
  of :class:`repro.tsan.HappensBefore`.  This makes the detector
  order-aware, so it has **no false positives** on the microbenchmark
  suite (Table 3, FP = 0).
* **Stack-array blind spot** — "ThreadSanitizer does not instrument
  stack arrays", so races on stack buffers are missed: the 15 false
  negatives of Table 3 and the ``ll_get_load_inwindow_origin_race``
  miss of Table 2.
* **Over-instrumentation** — no alias filtering: every non-stack local
  access is processed, which is the paper's explanation for MUST-RMA's
  large overhead in Fig. 10.
* **Vector-clock traffic** — at every synchronization the tool ships
  clocks whose size grows with the rank count; Figs 11/12 show the
  resulting scaling penalty.  :meth:`sync_notify_bytes` charges it.
* **Flush not modelled** — reproduces the CFD-Proxy false positive of
  the §6 discussion.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..aliasing import AliasFilter, FilterPolicy
from ..intervals import MemoryAccess
from ..mpi.memory import RegionInfo
from ..tsan import HappensBefore, ShadowMemory
from .base import Detector, NodeStats

if TYPE_CHECKING:
    from ..mpi.window import Window

__all__ = ["MustRma"]

_VC_ENTRY_BYTES = 12  # axis id + 64-bit time, roughly


class MustRma(Detector):
    """MUST + TSan model: vector-clock happens-before over shadow memory."""

    name = "MUST-RMA"
    rma_notify_bytes = 0  # no per-op message; clocks ride on syncs

    def __init__(self, *, abort_on_race: bool = False) -> None:
        super().__init__(abort_on_race=abort_on_race)
        self.filter = AliasFilter(FilterPolicy.TSAN)
        self.shadow = ShadowMemory()
        self._hb: Optional[HappensBefore] = None
        self._nranks = 0
        self._processed = 0

    # -- cost declaration -----------------------------------------------------

    def sync_notify_bytes(self, nranks: int) -> int:
        # two axes per rank (app + rma), shipped at each sync
        return 2 * nranks * _VC_ENTRY_BYTES

    # -- lazily sized happens-before state ---------------------------------------

    def _ensure_hb(self, rank: int) -> HappensBefore:
        if self._hb is None:
            self._hb = HappensBefore()
        self._nranks = max(self._nranks, rank + 1)
        self._hb.app_clock(rank)  # ranks appear lazily
        return self._hb

    # -- hooks ----------------------------------------------------------------------

    def on_win_create(self, window: Window) -> None:
        hb = self._ensure_hb(len(window.regions) - 1)
        for r in range(len(window.regions)):
            hb.app_clock(r)
        hb.barrier()  # win_allocate is collective

    def on_epoch_end(self, rank: int, wid: int) -> None:
        hb = self._ensure_hb(rank)
        hb.complete_epoch(rank, wid)

    def on_barrier(self) -> None:
        if self._hb is not None:
            self._hb.barrier()
            # joining every rank's clock: O(ranks * clock size)
            self.work_units += self._nranks * self._hb.clock_size()

    # flush intentionally ignored (§6: "not well instrumented")

    def on_local(
        self, rank: int, access: MemoryAccess, region: RegionInfo
    ) -> None:
        if not self.filter.instrument(region):
            return  # TSan does not see stack arrays
        hb = self._ensure_hb(rank)
        stamp, clock = hb.local_event(rank)
        self._processed += 1
        self._count_event()
        c0 = self.shadow.cells_touched
        conflicts = self.shadow.check_and_update(
            rank, access, stamp, clock, access.is_write
        )
        # clock copy + shadow-cell scans: the per-access TSan cost
        self.work_units += len(clock) + (self.shadow.cells_touched - c0)
        for cell in conflicts:
            self._report(rank, -1, cell.access, access,
                         phase="shadow_check")

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
        hb = self._ensure_hb(max(rank, target))
        # the origin-side access (TSan skips it if the buffer is on the stack)
        if not origin_region.is_stack:
            stamp, clock = hb.rma_event(rank, wid)
            self._processed += 1
            self._count_event()
            c0 = self.shadow.cells_touched
            conflicts = self.shadow.check_and_update(
                rank, origin_access, stamp, clock, origin_access.is_write
            )
            self.work_units += len(clock) + (self.shadow.cells_touched - c0)
            for cell in conflicts:
                self._report(rank, wid, cell.access, origin_access,
                             phase="shadow_check")
        # the target-side access — also skipped when the window was
        # created over a stack array (MPI_Win_create on a local array;
        # §5.2: "when using heap arrays, the error is detected")
        if not target_region.is_stack:
            stamp, clock = hb.rma_event(rank, wid)
            self._processed += 1
            self._count_event()
            c0 = self.shadow.cells_touched
            conflicts = self.shadow.check_and_update(
                target, target_access, stamp, clock, target_access.is_write
            )
            self.work_units += len(clock) + (self.shadow.cells_touched - c0)
            for cell in conflicts:
                self._report(target, wid, cell.access, target_access,
                             phase="shadow_check")

    # -- statistics -------------------------------------------------------------------

    def node_stats(self) -> NodeStats:
        stats = NodeStats()
        stats.total_current_nodes = len(self.shadow)
        stats.total_max_nodes = len(self.shadow)
        stats.accesses_processed = self._processed
        stats.accesses_filtered = self.filter.filtered
        return stats

    @property
    def clock_size(self) -> int:
        return self._hb.clock_size() if self._hb else 0
