"""Trace persistence and offline replay.

MC-Checker-style workflows separate *recording* from *analysis*: the
profiling layer writes the execution trace to disk, and the analysis
runs post mortem — possibly repeatedly, with different tools.  This
module provides exactly that for the simulated runtime:

* :func:`save_trace` / :func:`load_trace` — a :class:`TraceLog` to and
  from a ``repro-trace-v2`` file (:mod:`repro.pipeline.format`), every
  access with its full metadata, every sync event;
* :func:`replay_trace` — feed a recorded trace into any detector, as if
  the events were live.  ``replay_trace(load_trace(p), FlatDetector())``
  produces byte-for-byte the verdicts of the original run.

Record with ``World(..., trace=True)``; the world's trace log carries
the rank count needed to rebuild collective events.  :func:`load_trace`
raises :class:`~repro.mpi.errors.TraceFormatError` — naming the file —
on truncated, corrupt or non-v2 input.  For analysis that should not
hold the whole trace in memory, use the streaming pipeline
(:func:`repro.pipeline.analyze_trace`) instead of :func:`load_trace` +
:func:`replay_trace`.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Union

from .trace import TraceLog

if TYPE_CHECKING:
    from .interposition import DetectorProtocol

__all__ = ["save_trace", "load_trace", "replay_trace"]


def save_trace(log: TraceLog, path: Union[str, Path], *, nranks: int) -> None:
    """Write a trace as a ``repro-trace-v2`` file."""
    from ..pipeline.writer import BinaryTraceWriter

    with BinaryTraceWriter(path, nranks=nranks) as writer:
        for event in log.events:
            writer.write(event)


def load_trace(path: Union[str, Path]) -> "LoadedTrace":
    """Read a trace written by :func:`save_trace` or ``repro record``.

    Corrupt, truncated, or non-trace files raise
    :class:`~repro.mpi.errors.TraceFormatError` (a :class:`ValueError`)
    naming the offending file.
    """
    from ..pipeline.format import TraceReader

    reader = TraceReader(path)
    events = list(reader)
    log = TraceLog()
    log.events = events
    log._seq = max((e.seq for e in events), default=0)
    return LoadedTrace(log, reader.nranks)


class LoadedTrace:
    """A deserialized trace plus the world metadata replay needs."""

    def __init__(self, log: TraceLog, nranks: int) -> None:
        self.log = log
        self.nranks = nranks

    def __len__(self) -> int:
        return len(self.log)


def replay_trace(
    trace: LoadedTrace, detector: DetectorProtocol
) -> DetectorProtocol:
    """Drive a detector with a recorded trace (offline analysis).

    Events are dispatched exactly like the live interposition layer
    does; the detector's verdicts and statistics afterwards match a live
    run over the same execution.  The event→hook mapping is shared with
    the analysis engine (:mod:`repro.pipeline.shard`), so replay is
    also the engine's verdict-parity baseline.
    """
    from ..pipeline.shard import dispatch_event

    nranks = trace.nranks
    for event in trace.log.events:
        dispatch_event(detector, event, nranks)
    detector.finalize()
    return detector
