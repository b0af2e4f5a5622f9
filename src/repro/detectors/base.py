"""Common detector machinery.

Every tool modelled in this reproduction — the original RMA-Analyzer,
our contribution, the MUST-RMA model, Park et al.'s mirror windows and
the MC-CChecker post-mortem analysis — plugs into the simulated
runtime's interposition layer through the hook set defined here (the
runtime side of the contract is
:class:`repro.mpi.interposition.DetectorProtocol`).

Detectors *record* :class:`RaceReport` objects; in ``abort_on_race``
mode they raise :class:`DataRaceError` instead, emulating the real
tool's ``MPI_Abort`` (Fig. 9b).  Each detector also exposes node/work
statistics because half of the paper's evaluation (Fig. 10, Table 4) is
about the size of the analysis state, not about verdicts.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from .. import obs
from .._fields import Fields
from ..core.report import DataRaceError, RaceReport
from ..intervals import MemoryAccess
from ..mpi.memory import RegionInfo

if TYPE_CHECKING:  # the simulator's Window; never imported at runtime
    from ..mpi.window import Window

__all__ = ["Detector", "NodeStats"]


class NodeStats(Fields):
    """Analysis-state size summary, aggregated over (rank, window) stores.

    ``max_nodes_per_rank[r]`` is the high-water node count of rank r's
    largest store; ``total_max_nodes`` sums the high-water marks of every
    store — the quantity comparable to the paper's "number of nodes in
    the BST" (Table 4, and the 90,004 -> 54 CFD-Proxy reduction).
    """

    _fields = ("total_max_nodes", "total_current_nodes",
               "max_nodes_per_rank", "accesses_processed",
               "accesses_filtered")

    def __init__(self, total_max_nodes: int = 0,
                 total_current_nodes: int = 0,
                 max_nodes_per_rank: Optional[Dict[int, int]] = None,
                 accesses_processed: int = 0,
                 accesses_filtered: int = 0) -> None:
        self.total_max_nodes = total_max_nodes
        self.total_current_nodes = total_current_nodes
        self.max_nodes_per_rank = ({} if max_nodes_per_rank is None
                                   else max_nodes_per_rank)
        self.accesses_processed = accesses_processed
        self.accesses_filtered = accesses_filtered

    @property
    def max_nodes_one_rank(self) -> int:
        return max(self.max_nodes_per_rank.values(), default=0)


class Detector:
    """Base class: no-op hooks, report collection, cost declaration."""

    #: human-readable tool name (used in reports and experiment tables)
    name: str = "base"
    #: bytes the tool itself sends per one-sided op (RMA-Analyzer's
    #: per-operation MPI_Send notification, §5.1)
    rma_notify_bytes: int = 0

    #: reports kept in memory; further races are only counted (the real
    #: tools abort at the first race, so keeping every report of a
    #: pathological run would be pure overhead)
    MAX_KEPT_REPORTS = 1000

    #: instance attributes never checkpointed: cached obs handles are
    #: bound to a per-process registry and must be re-bound lazily after
    #: a restore (possibly in a different process)
    _CKPT_SKIP = frozenset({"_obs_reg", "_c_events"})

    def __init__(self, *, abort_on_race: bool = False) -> None:
        self.reports: List[RaceReport] = []
        self.reports_total = 0
        self.abort_on_race = abort_on_race
        #: cumulative abstract work units (comparisons, shadow cells,
        #: clock entries) — the cost model charges their deltas
        self.work_units: float = 0.0
        # pre-formatted per-tool metric keys plus cached counter handles:
        # the event path runs per analysed access, so increments go
        # through handles rebound on registry identity (obs.scope /
        # obs.reset swaps) rather than per-call registry lookups
        self._k_events = obs.metric_key("detector.events",
                                        {"tool": self.name})
        self._k_verdicts = obs.metric_key("detector.verdicts",
                                          {"tool": self.name})
        self._obs_reg = None
        self._obs_published = False

    def _bind_obs(self, reg) -> None:
        """(Re)bind cached instrument handles; subclasses extend."""
        self._obs_reg = reg
        self._c_events = reg.counter(self._k_events)

    def _count_event(self) -> None:
        """Count one analysed event against this tool (hot path)."""
        reg = obs.active()
        if reg.enabled:
            if reg is not self._obs_reg:
                self._bind_obs(reg)
            self._c_events.value += 1

    # -- cost declaration ---------------------------------------------------

    def sync_notify_bytes(self, nranks: int) -> int:
        """Extra bytes the tool sends at each sync (vector clocks etc.)."""
        return 0

    def analysis_work(self) -> float:
        """Cumulative work units; see :attr:`work_units`."""
        return self.work_units

    def state_rows(self) -> int:
        """Rows of analysis state a checkpoint would carry (its size)."""
        return 0

    # -- verdict plumbing ------------------------------------------------------

    #: timeline events shown per rank in a forensics bundle
    FORENSICS_CONTEXT = 8

    def _report(
        self, rank: int, wid: int, stored: MemoryAccess, new: MemoryAccess,
        *, phase: str = "check",
    ) -> None:
        self.reports_total += 1
        reg = obs.active()
        reg.counter(self._k_verdicts).inc()
        if len(self.reports) < self.MAX_KEPT_REPORTS:
            forensics = None
            if reg.enabled:
                from ..core.forensics import capture_forensics

                forensics = capture_forensics(
                    self, reg.timeline, rank, wid, stored, new,
                    phase=phase, k=self.FORENSICS_CONTEXT,
                )
            report = RaceReport(rank, wid, stored, new, self.name,
                                forensics)
            self.reports.append(report)
            if self.abort_on_race:
                raise DataRaceError(report)

    # -- checkpointing ---------------------------------------------------------

    def snapshot(self) -> dict:
        """Checkpointable state of this detector (``repro-ckpt-v1``).

        Captures every instance attribute except the per-process obs
        handles (:attr:`_CKPT_SKIP`); containers are copied one level
        deep so the live detector can keep mutating them.  Values deeper
        down are captured by reference — serialize the snapshot before
        applying more events if it must outlive this process.
        Subclasses with non-serializable or recursion-deep state
        override :meth:`_encode_state` / :meth:`_decode_state`.
        """
        state = {}
        for key, value in self.__dict__.items():
            if key in self._CKPT_SKIP:
                continue
            if isinstance(value, (list, set, dict)):
                value = value.copy()
            state[key] = value
        return {"class": type(self).__name__,
                "state": self._encode_state(state)}

    def restore(self, snap: dict) -> None:
        """Adopt a :meth:`snapshot`; the detector resumes mid-analysis."""
        if snap.get("class") != type(self).__name__:
            raise ValueError(
                "checkpoint is for detector %r, not %r"
                % (snap.get("class"), type(self).__name__))
        self.__dict__.update(self._decode_state(dict(snap["state"])))
        # cached instrument handles are stale (wrong process/registry):
        # the next _count_event() re-binds against the active registry
        self._obs_reg = None

    def _encode_state(self, state: dict) -> dict:
        """Subclass hook: make the state dict serialization-safe."""
        return state

    def _decode_state(self, state: dict) -> dict:
        """Subclass hook: invert :meth:`_encode_state`."""
        return state

    # -- forensic state hooks (subclasses override) ----------------------------

    def forensic_sync_state(self, wid: int) -> dict:
        """Tool-specific synchronization state of one window, JSON-able."""
        return {}

    def forensic_tree_state(self, rank: int, wid: int) -> Optional[dict]:
        """Statistics of the analysis store the race was found in."""
        return None

    @property
    def race_detected(self) -> bool:
        return self.reports_total > 0

    def reset_reports(self) -> None:
        self.reports.clear()
        self.reports_total = 0

    # -- hooks (no-ops by default) ------------------------------------------------

    def on_win_create(self, window: Window) -> None: ...

    def on_win_free(self, wid: int) -> None: ...

    def on_epoch_start(self, rank: int, wid: int) -> None: ...

    def on_epoch_end(self, rank: int, wid: int) -> None: ...

    def on_flush(self, rank: int, wid: int) -> None: ...

    def on_request_complete(self, rank: int, wid: int, access) -> None:
        """MPI_Wait on a request-based op (default: not modelled)."""

    def on_barrier(self) -> None: ...

    def on_fence(self, wid: int, nranks: int) -> None:
        """MPI_Win_fence: collective completion of all ops on the window.

        The default treats it as every rank's epoch ending and a new one
        starting, plus a barrier — sound for every modelled tool because
        a fence really does complete and order everything on the window.
        """
        for rank in range(nranks):
            self.on_epoch_end(rank, wid)
        self.on_barrier()
        for rank in range(nranks):
            self.on_epoch_start(rank, wid)

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

    def finalize(self) -> None:
        """Called once after the program ends (post-mortem analyses run here)."""

    # -- statistics ------------------------------------------------------------------

    def node_stats(self) -> NodeStats:
        """Size of the analysis state; subclasses override."""
        return NodeStats()

    def publish_obs(self) -> None:
        """Publish this instance's final statistics into the registry.

        Called by every stats consumer (``run_app``, the analysis
        engine) *after* :meth:`finalize`; idempotent per instance.
        These registry values are the single source of truth the CLI
        metrics table, ``--metrics-json`` and the Table-4 driver all
        read.
        """
        if self._obs_published:
            return
        self._obs_published = True
        reg = obs.active()
        if not reg.enabled:
            return
        tool = self.name
        stats = self.node_stats()
        reg.gauge("bst.nodes", tool=tool).set(stats.total_current_nodes)
        reg.counter("bst.nodes_peak", tool=tool).add(stats.total_max_nodes)
        reg.gauge("bst.nodes_peak_one_rank", tool=tool).set(
            stats.max_nodes_one_rank)
        reg.counter("detector.processed", tool=tool).add(
            stats.accesses_processed)
        reg.counter("detector.filtered", tool=tool).add(
            stats.accesses_filtered)
        filt = getattr(self, "filter", None)
        if filt is not None:
            reg.counter("filter.seen", tool=tool).add(filt.seen)
            reg.counter("filter.kept", tool=tool).add(filt.kept)
        self._publish_extra(reg)

    def _publish_extra(self, reg) -> None:
        """Subclass hook for tool-specific registry publications."""
