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

Detectors may raise :class:`repro.core.report.DataRaceError` to emulate
the tool's abort-on-first-race behaviour; the exception propagates to
the simulator which stops the world.
"""

from __future__ import annotations

import time
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

    def _sync_timeline(self, kind: str, rank: int, wid: int) -> None:
        """Replicate one synchronization event into every rank's lane."""
        tl = obs.active().timeline
        if tl is not None:
            tl.record_sync(kind, rank, wid, range(self.clock.nranks))

    # -- internal ------------------------------------------------------------

    def _timed(self, rank: int):
        """Context data for timing one event's detector work."""
        return _Timer(self, rank)

    # -- event hooks -----------------------------------------------------------

    def win_create(self, window: Window) -> None:
        if self.trace is not None:
            self.trace.append(
                SyncEvent(self.trace.next_seq(), -1, SyncKind.WIN_CREATE, window.wid)
            )
        self._sync_timeline("win_create", -1, window.wid)
        with self._timed(-1):
            for d in self.detectors:
                d.on_win_create(window)

    def win_free(self, wid: int) -> None:
        if self.trace is not None:
            self.trace.append(
                SyncEvent(self.trace.next_seq(), -1, SyncKind.WIN_FREE, wid)
            )
        self._sync_timeline("win_free", -1, wid)
        with self._timed(-1):
            for d in self.detectors:
                d.on_win_free(wid)

    def epoch_start(self, rank: int, wid: int) -> None:
        if self.trace is not None:
            self.trace.append(
                SyncEvent(self.trace.next_seq(), rank, SyncKind.LOCK_ALL, wid)
            )
        self._sync_timeline("lock_all", rank, wid)
        with self._timed(rank):
            for d in self.detectors:
                d.on_epoch_start(rank, wid)

    def epoch_end(self, rank: int, wid: int) -> None:
        if self.trace is not None:
            self.trace.append(
                SyncEvent(self.trace.next_seq(), rank, SyncKind.UNLOCK_ALL, wid)
            )
        self._sync_timeline("unlock_all", rank, wid)
        self._charge_sync_traffic(rank)
        with self._timed(rank):
            for d in self.detectors:
                d.on_epoch_end(rank, wid)

    def flush(self, rank: int, wid: int, *, all_targets: bool) -> None:
        kind = SyncKind.FLUSH_ALL if all_targets else SyncKind.FLUSH
        if self.trace is not None:
            self.trace.append(SyncEvent(self.trace.next_seq(), rank, kind, wid))
        self._sync_timeline(kind.value, rank, wid)
        self._charge_sync_traffic(rank)
        with self._timed(rank):
            for d in self.detectors:
                d.on_flush(rank, wid)

    def request_complete(self, rank: int, wid: int, access) -> None:
        with self._timed(rank):
            for d in self.detectors:
                d.on_request_complete(rank, wid, access)

    def barrier(self) -> None:
        if self.trace is not None:
            self.trace.append(SyncEvent(self.trace.next_seq(), -1, SyncKind.BARRIER))
        self._sync_timeline("barrier", -1, -1)
        with self._timed(-1):
            for d in self.detectors:
                d.on_barrier()

    def fence(self, wid: int, nranks: int) -> None:
        if self.trace is not None:
            self.trace.append(
                SyncEvent(self.trace.next_seq(), -1, SyncKind.FENCE, wid)
            )
        self._sync_timeline("fence", -1, wid)
        self._charge_sync_traffic(0)
        with self._timed(-1):
            for d in self.detectors:
                d.on_fence(wid, nranks)

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
        with self._timed(rank):
            info = region.info
            for d in self.detectors:
                d.on_local(rank, access, info)

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
        with self._timed(rank):
            oinfo = origin_region.info
            tinfo = target_region.info
            for d in self.detectors:
                d.on_rma(
                    op, rank, target, wid, origin_access, target_access,
                    oinfo, tinfo,
                )

    def finalize(self) -> None:
        with self._timed(-1):
            for d in self.detectors:
                d.finalize()

    # -- costs -------------------------------------------------------------------

    def _charge_sync_traffic(self, rank: int) -> None:
        nranks = self.clock.nranks
        for d in self.detectors:
            nbytes = d.sync_notify_bytes(nranks)
            if nbytes:
                self.clock.charge_rma(rank if rank >= 0 else 0, nbytes)


class _Timer:
    """Times one event's detector work and books it on the clock."""

    __slots__ = ("interp", "rank", "t0")

    def __init__(self, interp: Interposition, rank: int) -> None:
        self.interp = interp
        self.rank = rank

    def __enter__(self) -> "_Timer":
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        dt = time.perf_counter() - self.t0
        interp = self.interp
        if not interp.detectors:
            return
        reg = obs.active()
        if reg.enabled:
            # piggyback on the clock reads the cost model already makes
            reg.phase_ns("interpose.dispatch", int(dt * 1e9))
        for d in interp.detectors:
            # with several detectors attached the split is approximate
            # (equal shares); timing experiments attach exactly one
            interp.analysis_wall[d.name] += dt / max(1, len(interp.detectors))
        # deterministic simulated cost: per-event dispatch + the data
        # structure work the detectors just performed
        total_work = 0.0
        for d in interp.detectors:
            total_work += d.analysis_work()
        delta = total_work - interp._last_work
        interp._last_work = total_work
        if self.rank >= 0:
            interp.clock.charge_analysis_work(self.rank, 1, delta)
