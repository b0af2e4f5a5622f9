"""Exceptions raised by the simulated MPI-RMA runtime and trace analysis.

These mirror the failure modes a real MPI library (or a debug build of
one) would report: usage errors are programming bugs in the *simulated
application*, not in the simulator itself, and carry enough context to
point at the offending rank and call.  The trace-analysis errors the
CLI and the daemon catch live here too, so catching them never imports
the code that raises them (the checkpoint module).
"""

from __future__ import annotations

from typing import Optional

__all__ = [
    "MpiSimError",
    "RmaUsageError",
    "EpochError",
    "OutOfWindowError",
    "CollectiveMismatchError",
    "DeadlockError",
    "TraceFormatError",
    "TraceChainMismatch",
    "CheckpointError",
    "TraceDivergedError",
]


class MpiSimError(RuntimeError):
    """Base class for all simulated-MPI errors."""


class RmaUsageError(MpiSimError):
    """An RMA call was malformed (bad target, bad size, freed window...)."""


class EpochError(RmaUsageError):
    """RMA call outside an epoch, double lock, unlock without lock, ..."""


class OutOfWindowError(RmaUsageError):
    """A one-sided operation reached past the target's window bounds."""


class CollectiveMismatchError(MpiSimError):
    """Ranks disagreed on a collective call (different op or window)."""


class DeadlockError(MpiSimError):
    """The scheduler found no runnable rank while some are still waiting."""


class TraceFormatError(MpiSimError, ValueError):
    """A trace file is corrupt, truncated, or not a ``repro-trace-v2``
    trace at all.

    Carries the offending ``path``; the message names the chunk where
    one is to blame.  Subclasses :class:`ValueError` so pre-existing
    callers that caught the old raw error keep working.
    """

    def __init__(self, message: str, *, path=None) -> None:
        if path is not None:
            message = f"{path}: {message}"
        super().__init__(message)
        self.path = str(path) if path is not None else None


class TraceChainMismatch(TraceFormatError):
    """A stored rolling-chain digest disagrees with the recomputed chain.

    Distinct from garden-variety corruption (the payload checksum still
    passes): the chunk's *content* is internally consistent but it is
    not the content the preceding chunks commit to — the prefix was
    rewritten underneath an append, or chunks were spliced from another
    trace.  Follow/resume converts this into :class:`TraceDivergedError`
    so callers can branch on "re-record, don't retry".  Carries the
    1-based ``chunk`` where the chain first broke.
    """

    def __init__(self, message: str, *, path=None, chunk=None) -> None:
        super().__init__(message, path=path)
        self.chunk = chunk


class CheckpointError(Exception):
    """A checkpoint file is unusable, or resume preconditions fail."""


class TraceDivergedError(CheckpointError):
    """The trace is not an append-only extension of the analyzed prefix.

    Raised when a resume (or ``--follow`` re-poll) finds the rolling
    hash chain recorded in the checkpoint cursor disagrees with the
    bytes now on disk: something rewrote or replaced the prefix the
    detector state was built from, so continuing would emit confidently
    wrong verdicts.  Subclasses :class:`CheckpointError` so existing
    no-retry handling applies, but carries its own identity (and a
    dedicated CLI exit code) because the remedy differs — re-analyze
    from scratch, don't retry the resume.
    """

    def __init__(self, message: str, *, path: Optional[str] = None,
                 chunk: Optional[int] = None) -> None:
        super().__init__(message)
        self.path = path
        self.chunk = chunk
