"""Model of MC-CChecker (Diep et al., EuroMPI'18) — post-mortem analysis.

Related-work baseline (§3): MC-CChecker improves MC-Checker with "a
clock-based approach based on the encoded vector clock": the execution
is recorded, then concurrent regions are derived from the synchronization
events and all pairs of conflicting accesses inside concurrent regions
are reported *after the run*.

The model records every (access, stamp, clock-view) online — recording
is what the real tool's profiling layer does too — and runs the whole
pairwise analysis in :meth:`finalize`.  It shares the happens-before
construction with the MUST-RMA model but has neither the stack blind
spot nor an alias filter: its weakness in the paper's narrative is not
accuracy but that it reports *post mortem* (no early abort, so the
failing execution is long gone) and that the recorded trace grows with
the execution (the scalability complaint against MC-Checker).  Verdicts
become available only after ``finalize``.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Tuple

from ..intervals import MemoryAccess
from ..mpi.memory import RegionInfo
from ..tsan import GRANULE, HappensBefore, Stamp, VectorClock
from .base import Detector, NodeStats

if TYPE_CHECKING:
    from ..mpi.window import Window

__all__ = ["McCChecker"]


@dataclass(frozen=True)
class _Rec:
    """One recorded access with its concurrency context."""

    memory_rank: int
    access: MemoryAccess
    stamp: Stamp
    clock: VectorClock
    order: int


class McCChecker(Detector):
    """Record online, detect at finalize (post-mortem, clock-based)."""

    name = "MC-CChecker"
    rma_notify_bytes = 0

    def __init__(self, *, abort_on_race: bool = False) -> None:
        super().__init__(abort_on_race=abort_on_race)
        self._hb = HappensBefore()
        self._records: List[_Rec] = []
        self._order = 0
        self.finalized = False

    # -- recording ------------------------------------------------------------

    def _record(self, memory_rank: int, access: MemoryAccess, stamp, clock) -> None:
        self._order += 1
        self.work_units += 1 + len(clock)  # record + clock snapshot
        self._records.append(_Rec(memory_rank, access, stamp, clock, self._order))

    def state_rows(self) -> int:
        return len(self._records)

    def on_win_create(self, window: Window) -> None:
        for r in range(len(window.regions)):
            self._hb.app_clock(r)
        self._hb.barrier()

    def on_epoch_end(self, rank: int, wid: int) -> None:
        self._hb.complete_epoch(rank, wid)

    def on_barrier(self) -> None:
        self._hb.barrier()

    def on_local(
        self, rank: int, access: MemoryAccess, region: RegionInfo
    ) -> None:
        stamp, clock = self._hb.local_event(rank)
        self._record(rank, access, stamp, clock)

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
        stamp, clock = self._hb.rma_event(rank, wid)
        self._record(rank, origin_access, stamp, clock)
        stamp, clock = self._hb.rma_event(rank, wid)
        self._record(target, target_access, stamp, clock)

    # -- post-mortem analysis ------------------------------------------------------

    def finalize(self) -> None:
        """Pairwise check of all recorded accesses, bucketed by granule."""
        buckets: Dict[Tuple[int, int], List[_Rec]] = defaultdict(list)
        for rec in self._records:
            iv = rec.access.interval
            for g in range(iv.lo // GRANULE, (iv.hi - 1) // GRANULE + 1):
                buckets[(rec.memory_rank, g)].append(rec)
        seen_pairs = set()
        for recs in buckets.values():
            for i, a in enumerate(recs):
                for b in recs[i + 1 :]:
                    pair = (a.order, b.order)
                    self.work_units += 1
                    if pair in seen_pairs:
                        continue
                    if not a.access.interval.overlaps(b.access.interval):
                        continue
                    if not (a.access.is_write or b.access.is_write):
                        continue
                    if a.access.is_atomic and b.access.is_atomic and (
                        a.access.accum_op == b.access.accum_op
                        or a.access.origin == b.access.origin
                    ):
                        continue  # accumulate atomicity / ordering
                    if (
                        a.access.excl_epoch is not None
                        and b.access.excl_epoch is not None
                        and a.access.excl_epoch != b.access.excl_epoch
                    ):
                        continue  # exclusive-lock serialization
                    # concurrent iff neither event is in the other's view;
                    # a.clock is a's view *at its own event time*, so a
                    # knows b only through later syncs -> compare via the
                    # later event's view (b happened after a in recording)
                    if b.clock.knows(a.stamp):
                        continue
                    seen_pairs.add(pair)
                    self._report(a.memory_rank, -1, a.access, b.access,
                                 phase="post_mortem")
        self.finalized = True

    def node_stats(self) -> NodeStats:
        stats = NodeStats()
        stats.total_current_nodes = len(self._records)
        stats.total_max_nodes = len(self._records)
        stats.accesses_processed = len(self._records)
        return stats
