"""Passive-target epoch state machine.

The paper focuses on the Passive Target synchronization mode: an origin
opens an access epoch on a window with ``MPI_Win_lock_all`` and closes
it with ``MPI_Win_unlock_all``; ``MPI_Win_flush_all`` (or per-target
``MPI_Win_flush``) completes outstanding operations *inside* the epoch
without closing it.  This module tracks, per (rank, window):

* whether an epoch is open (one-sided calls outside an epoch are usage
  errors the simulator reports immediately),
* how many one-sided operations the rank issued in the current epoch,
* the rank's *flush generation* — bumped by each flush, recorded on
  every access so detectors with precise flush support (§6 discussion)
  can exempt completed-vs-later pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from .errors import EpochError

__all__ = ["EpochTracker"]


@dataclass
class _EpochState:
    active: bool = False
    mode: str = ""  # "lock" | "fence" | "pscw" when active
    ops_issued: int = 0
    flush_gen: int = 0
    epochs_completed: int = 0
    # per-target passive locks held by this rank: target -> exclusive?
    target_locks: Dict[int, bool] = field(default_factory=dict)
    # PSCW exposure epoch (MPI_Win_post .. MPI_Win_wait) open on this rank
    exposed: bool = False


class EpochTracker:
    """All (rank, window) epoch states of one simulated world."""

    def __init__(self) -> None:
        self._state: Dict[Tuple[int, int], _EpochState] = {}

    def _get(self, rank: int, wid: int) -> _EpochState:
        return self._state.setdefault((rank, wid), _EpochState())

    # -- transitions ---------------------------------------------------------

    def lock_all(self, rank: int, wid: int) -> None:
        st = self._get(rank, wid)
        if st.active:
            raise EpochError(
                f"rank {rank}: MPI_Win_lock_all on window {wid} inside an epoch"
            )
        st.active = True
        st.mode = "lock"
        st.ops_issued = 0

    def unlock_all(self, rank: int, wid: int) -> None:
        st = self._get(rank, wid)
        if not st.active or st.mode != "lock":
            raise EpochError(
                f"rank {rank}: MPI_Win_unlock_all on window {wid} without a "
                "passive-target epoch"
            )
        st.active = False
        st.mode = ""
        st.epochs_completed += 1

    def fence(self, rank: int, wid: int) -> None:
        """Active-target sync: completes the previous fence epoch (if
        any) and opens the next one.  Mixing with passive-target
        synchronization (lock_all or per-target locks) is an error."""
        st = self._get(rank, wid)
        if st.active and st.mode in ("lock", "pscw"):
            raise EpochError(
                f"rank {rank}: MPI_Win_fence on window {wid} inside a "
                f"{'passive-target' if st.mode == 'lock' else 'PSCW'} epoch"
            )
        if st.target_locks:
            raise EpochError(
                f"rank {rank}: MPI_Win_fence on window {wid} while holding "
                f"per-target locks on {sorted(st.target_locks)}"
            )
        if st.active:
            st.epochs_completed += 1
        st.active = True
        st.mode = "fence"
        st.ops_issued = 0

    def start(self, rank: int, wid: int) -> None:
        """MPI_Win_start: open a PSCW *access* epoch (general active
        target).  The matching target group is not modelled — the
        simulator schedules post before start, so the blocking semantics
        of MPI_Win_start never come into play."""
        st = self._get(rank, wid)
        if st.active:
            raise EpochError(
                f"rank {rank}: MPI_Win_start on window {wid} inside an epoch"
            )
        if st.target_locks:
            raise EpochError(
                f"rank {rank}: MPI_Win_start on window {wid} while holding "
                f"per-target locks on {sorted(st.target_locks)}"
            )
        st.active = True
        st.mode = "pscw"
        st.ops_issued = 0

    def complete(self, rank: int, wid: int) -> None:
        """MPI_Win_complete: close the PSCW access epoch."""
        st = self._get(rank, wid)
        if not st.active or st.mode != "pscw":
            raise EpochError(
                f"rank {rank}: MPI_Win_complete on window {wid} without a "
                "PSCW access epoch"
            )
        st.active = False
        st.mode = ""
        st.epochs_completed += 1

    def post(self, rank: int, wid: int) -> None:
        """MPI_Win_post: open a PSCW *exposure* epoch on this rank."""
        st = self._get(rank, wid)
        if st.exposed:
            raise EpochError(
                f"rank {rank}: MPI_Win_post on window {wid} inside an "
                "exposure epoch"
            )
        st.exposed = True

    def wait(self, rank: int, wid: int) -> None:
        """MPI_Win_wait: close the PSCW exposure epoch."""
        st = self._get(rank, wid)
        if not st.exposed:
            raise EpochError(
                f"rank {rank}: MPI_Win_wait on window {wid} without an "
                "exposure epoch"
            )
        st.exposed = False

    def lock(self, rank: int, wid: int, target: int, exclusive: bool) -> None:
        """MPI_Win_lock(target): per-target passive-target epoch."""
        st = self._get(rank, wid)
        if st.active and st.mode == "fence":
            raise EpochError(
                f"rank {rank}: MPI_Win_lock inside a fence epoch on {wid}"
            )
        if st.mode == "lock":
            raise EpochError(
                f"rank {rank}: MPI_Win_lock while lock_all holds window {wid}"
            )
        if st.mode == "pscw":
            raise EpochError(
                f"rank {rank}: MPI_Win_lock inside a PSCW access epoch on {wid}"
            )
        if target in st.target_locks:
            raise EpochError(
                f"rank {rank}: target {target} already locked on window {wid}"
            )
        st.target_locks[target] = exclusive

    def unlock(self, rank: int, wid: int, target: int) -> None:
        st = self._get(rank, wid)
        if target not in st.target_locks:
            raise EpochError(
                f"rank {rank}: MPI_Win_unlock({target}) without a lock on "
                f"window {wid}"
            )
        del st.target_locks[target]
        st.epochs_completed += 1

    def can_access(self, rank: int, wid: int, target: int) -> bool:
        """Is an RMA op from rank to target currently legal?"""
        st = self._get(rank, wid)
        return st.active or target in st.target_locks

    def target_lock_exclusive(self, rank: int, wid: int, target: int) -> Optional[bool]:
        return self._get(rank, wid).target_locks.get(target)

    def flush(self, rank: int, wid: int) -> int:
        """Record a flush; returns the new generation."""
        st = self._get(rank, wid)
        if not st.active and not st.target_locks:
            raise EpochError(
                f"rank {rank}: MPI_Win_flush(_all) on window {wid} without an epoch"
            )
        st.flush_gen += 1
        return st.flush_gen

    def note_op(self, rank: int, wid: int) -> None:
        st = self._get(rank, wid)
        if not st.active and not st.target_locks:
            raise EpochError(
                f"rank {rank}: one-sided operation on window {wid} outside an epoch"
            )
        st.ops_issued += 1

    # -- queries ---------------------------------------------------------------

    def active(self, rank: int, wid: int) -> bool:
        return self._get(rank, wid).active

    def flush_gen(self, rank: int, wid: int) -> int:
        return self._get(rank, wid).flush_gen

    def ops_in_epoch(self, rank: int, wid: int) -> int:
        return self._get(rank, wid).ops_issued

    def epochs_completed(self, rank: int, wid: int) -> int:
        return self._get(rank, wid).epochs_completed

    def assert_all_closed(self, wid: int, nranks: int) -> None:
        """Raise when a window is freed with a passive epoch still open.

        Fence-mode "epochs" close themselves at every fence, so a window
        may be freed after its final fence.
        """
        for rank in range(nranks):
            st = self._get(rank, wid)
            if st.active and st.mode in ("lock", "pscw"):
                raise EpochError(
                    f"rank {rank}: window {wid} freed with an open epoch"
                )
            if st.target_locks:
                raise EpochError(
                    f"rank {rank}: window {wid} freed with per-target locks "
                    f"held on {sorted(st.target_locks)}"
                )
            if st.exposed:
                raise EpochError(
                    f"rank {rank}: window {wid} freed with an open exposure "
                    "epoch (MPI_Win_wait missing)"
                )
