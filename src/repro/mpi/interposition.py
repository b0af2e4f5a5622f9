"""PMPI-style interposition layer.

In the real tool chain, RMA-Analyzer instruments memory accesses at
compile time (LLVM pass) and intercepts MPI calls through the PMPI
profiling interface (§5.1).  In this reproduction the simulated runtime
plays both roles: every Load/Store/Put/Get and every synchronization
call flows through one :class:`Interposition` instance which

* forwards the event to each attached detector (see
  :class:`repro.detectors.base.Detector` for the hook set),
* measures the wall-clock time each detector spends handling the event
  and charges it to the issuing rank's simulated clock — this is the
  "overhead of the analysis at runtime" of Figs 10-12,
* charges the detector's *own* communication (RMA-Analyzer sends an
  MPI_Send to the target per one-sided op; MUST-RMA piggybacks vector
  clocks whose size grows with the rank count) to the cost model,
* optionally appends everything to a :class:`TraceLog`.

Every synchronization call takes one path (:meth:`Interposition._sync`)
and every hook one timed dispatch (:meth:`Interposition._call`; the
hot local-access and RMA hooks inline its loop).

Detectors may raise :class:`repro.core.report.DataRaceError` to emulate
the tool's abort-on-first-race behaviour; the exception propagates to
the simulator which stops the world.
"""

from __future__ import annotations

from time import perf_counter
from typing import List, Optional, Protocol, Sequence

from .. import obs
from ..intervals import MemoryAccess
from .costmodel import SimClock
from .memory import Region, RegionInfo
from .trace import LocalEvent, RmaEvent, SyncEvent, SyncKind, TraceLog
from .window import Window

__all__ = ["DetectorProtocol", "Interposition"]


class DetectorProtocol(Protocol):
    """Structural interface of a detector (see repro.detectors.base)."""

    name: str
    # extra bytes the tool itself sends per one-sided op (PMPI MPI_Send)
    rma_notify_bytes: int

    def sync_notify_bytes(self, nranks: int) -> int: ...
    def analysis_work(self) -> float: ...
    def on_win_create(self, window: Window) -> None: ...
    def on_win_free(self, wid: int) -> None: ...
    def on_epoch_start(self, rank: int, wid: int) -> None: ...
    def on_epoch_end(self, rank: int, wid: int) -> None: ...
    def on_flush(self, rank: int, wid: int) -> None: ...
    def on_request_complete(self, rank: int, wid: int, access) -> None: ...
    def on_barrier(self) -> None: ...
    def on_fence(self, wid: int, nranks: int) -> None: ...
    def on_local(
        self, rank: int, access: MemoryAccess, region: RegionInfo
    ) -> None: ...
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
    ) -> None: ...
    def finalize(self) -> None: ...


class Interposition:
    """Fan-out of runtime events to detectors, with timing and costs."""

    def __init__(
        self,
        detectors: Sequence[DetectorProtocol],
        clock: SimClock,
        trace: Optional[TraceLog] = None,
    ) -> None:
        self.detectors: List[DetectorProtocol] = list(detectors)
        self.clock = clock
        self.trace = trace
        #: wall-clock seconds spent inside each detector, by name
        self.analysis_wall = {d.name: 0.0 for d in self.detectors}
        self.events_seen = 0
        self._last_work = 0.0
        self._obs_reg = None

    def _bind_obs(self, reg) -> None:
        """Cache per-kind event counters — one per event is too hot for
        the labelled get-or-create accessor."""
        self._obs_reg = reg
        self._c_local = reg.counter("interpose.events", kind="local")
        self._c_rma = reg.counter("interpose.events", kind="rma")
        self._tl = reg.timeline

    # -- dispatch --------------------------------------------------------------

    def _book(self, rank: int, dt: float) -> None:
        """Book ``dt`` seconds of one event's detector work on ``rank``
        (``-1``: no rank's clock)."""
        detectors = self.detectors
        if not detectors:
            return
        reg = obs.active()
        if reg.enabled:
            # piggyback on the clock reads the cost model already makes
            reg.phase_ns("interpose.dispatch", int(dt * 1e9))
        # with several detectors attached the split is approximate
        # (equal shares); timing experiments attach exactly one
        share = dt / len(detectors)
        for d in detectors:
            self.analysis_wall[d.name] += share
        # deterministic simulated cost: per-event dispatch + the data
        # structure work the detectors just performed
        total_work = 0.0
        for d in detectors:
            total_work += d.analysis_work()
        delta = total_work - self._last_work
        self._last_work = total_work
        if rank >= 0:
            self.clock.charge_analysis_work(rank, 1, delta)

    def _call(self, rank: int, hook: str, *args) -> None:
        """Run every detector's ``hook`` and book the time on ``rank``,
        also when a detector aborts on a race."""
        t0 = perf_counter()
        try:
            for d in self.detectors:
                getattr(d, hook)(*args)
        finally:
            self._book(rank, perf_counter() - t0)

    def _sync(self, kind: SyncKind, rank: int, wid: int, hook: str, *args,
              traffic: Optional[int] = None) -> None:
        """One synchronization event: record it, replicate it into every
        timeline lane, charge the tools' own sync messages on rank
        ``traffic`` (when given), then :meth:`_call` ``hook``."""
        trace = self.trace
        if trace is not None:
            trace.append(SyncEvent(trace.next_seq(), rank, kind, wid))
        tl = obs.active().timeline
        if tl is not None:
            tl.record_sync(kind.value, rank, wid, range(self.clock.nranks))
        if traffic is not None:
            nranks = self.clock.nranks
            for d in self.detectors:
                nbytes = d.sync_notify_bytes(nranks)
                if nbytes:
                    self.clock.charge_rma(traffic, nbytes)
        self._call(rank, hook, *args)

    # -- event hooks -----------------------------------------------------------

    def win_create(self, window: Window) -> None:
        self._sync(SyncKind.WIN_CREATE, -1, window.wid, "on_win_create",
                   window)

    def win_free(self, wid: int) -> None:
        self._sync(SyncKind.WIN_FREE, -1, wid, "on_win_free", wid)

    def epoch_start(self, rank: int, wid: int) -> None:
        self._sync(SyncKind.LOCK_ALL, rank, wid, "on_epoch_start", rank, wid)

    def epoch_end(self, rank: int, wid: int) -> None:
        self._sync(SyncKind.UNLOCK_ALL, rank, wid, "on_epoch_end", rank, wid,
                   traffic=rank)

    def flush(self, rank: int, wid: int, *, all_targets: bool) -> None:
        kind = SyncKind.FLUSH_ALL if all_targets else SyncKind.FLUSH
        self._sync(kind, rank, wid, "on_flush", rank, wid, traffic=rank)

    def request_complete(self, rank: int, wid: int, access) -> None:
        self._call(rank, "on_request_complete", rank, wid, access)

    def barrier(self) -> None:
        self._sync(SyncKind.BARRIER, -1, -1, "on_barrier")

    def fence(self, wid: int, nranks: int) -> None:
        self._sync(SyncKind.FENCE, -1, wid, "on_fence", wid, nranks,
                   traffic=0)

    def local_access(
        self, rank: int, access: MemoryAccess, region: Region
    ) -> None:
        self.events_seen += 1
        reg = obs.active()
        if reg.enabled:
            if reg is not self._obs_reg:
                self._bind_obs(reg)
            self._c_local.value += 1
            tl = self._tl
            if tl is not None:
                tl.record(rank, "local", rank, -1, access)
        if self.trace is not None:
            self.trace.append(
                LocalEvent(self.trace.next_seq(), rank, access, region.info)
            )
        t0 = perf_counter()
        try:
            info = region.info
            for d in self.detectors:
                d.on_local(rank, access, info)
        finally:
            self._book(rank, perf_counter() - t0)

    def rma(
        self,
        op: str,
        rank: int,
        target: int,
        wid: int,
        origin_access: MemoryAccess,
        target_access: MemoryAccess,
        origin_region: Region,
        target_region: Region,
        nbytes: int,
    ) -> None:
        self.events_seen += 1
        reg = obs.active()
        if reg.enabled:
            if reg is not self._obs_reg:
                self._bind_obs(reg)
            self._c_rma.value += 1
            tl = self._tl
            if tl is not None:
                tl.record_rma(op, rank, target, wid, origin_access,
                              target_access)
        if self.trace is not None:
            self.trace.append(
                RmaEvent(
                    self.trace.next_seq(),
                    rank,
                    op,
                    target,
                    wid,
                    origin_access,
                    target_access,
                    origin_region.info,
                    target_region.info,
                    nbytes,
                )
            )
        # the tool's own notification message (RMA-Analyzer: one MPI_Send
        # to the target per one-sided operation, §5.1).  It piggybacks on
        # the operation's network transaction: charge bytes plus a small
        # injection overhead, not a full fabric round-trip.
        for d in self.detectors:
            if d.rma_notify_bytes:
                self.clock.charge(
                    rank,
                    100.0 + d.rma_notify_bytes * self.clock.params.ns_per_byte,
                    "comm",
                )
        t0 = perf_counter()
        try:
            oinfo = origin_region.info
            tinfo = target_region.info
            for d in self.detectors:
                d.on_rma(
                    op, rank, target, wid, origin_access, target_access,
                    oinfo, tinfo,
                )
        finally:
            self._book(rank, perf_counter() - t0)

    def finalize(self) -> None:
        self._call(-1, "finalize")
