"""Recording side of the pipeline: run an app, stream its trace to disk.

``repro record <app>`` drives one of the simulated applications with
tracing enabled and no detector attached — the cheapest possible
recording run, matching the MC-Checker-style split where the profiling
layer only logs and every analysis happens post mortem.  Events are
streamed straight through a ``repro-trace-v2`` writer via
:class:`~repro.mpi.trace.StreamingTraceLog`, so recording memory stays
constant no matter how long the run is.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple, Union

from ..mpi.trace import StreamingTraceLog
from .writer import BinaryTraceWriter

__all__ = ["RECORDABLE_APPS", "AppSpec", "RecordResult", "record_app"]


@dataclass(frozen=True)
class AppSpec:
    """One recordable application: how to build its program + arguments."""

    name: str
    help: str
    default_ranks: int
    default_size: int
    #: ``builder(nranks, size, inject_race) -> (program, args)``
    builder: Callable[[int, int, bool], Tuple[Callable, tuple]]
    supports_race_injection: bool = False


def _minivite(nranks: int, size: int, inject_race: bool):
    from ..apps import (MiniViteConfig, MiniViteResult, default_graph,
                        make_comm_plan, minivite_program)

    config = MiniViteConfig(nvertices=size, inject_put_race=inject_race)
    graph = default_graph(config)
    plan = make_comm_plan(graph, nranks)
    return minivite_program, (graph, plan, config, MiniViteResult())


def _cfd(nranks: int, size: int, inject_race: bool):
    from ..apps import CfdConfig, CfdResult, cfd_program, default_partitions

    config = CfdConfig(iterations=size)
    parts = default_partitions(nranks, config)
    return cfd_program, (parts, config, CfdResult())


def _histogram(nranks: int, size: int, inject_race: bool):
    from ..apps import HistogramConfig, HistogramResult, histogram_program

    config = HistogramConfig(samples_per_rank=size)
    return histogram_program, (config, HistogramResult())


RECORDABLE_APPS: Dict[str, AppSpec] = {
    "minivite": AppSpec(
        "minivite", "single-phase distributed Louvain (size = vertices)",
        4, 1024, _minivite, supports_race_injection=True,
    ),
    "cfd": AppSpec(
        "cfd", "iterated halo exchange, two windows (size = iterations)",
        4, 10, _cfd,
    ),
    "histogram": AppSpec(
        "histogram", "accumulate-based histogram (size = samples/rank)",
        4, 256, _histogram,
    ),
}


@dataclass
class RecordResult:
    """What one recording run produced."""

    app: str
    nranks: int
    events: int
    path: Optional[Path] = None
    #: set only for in-memory recordings (``out=None``)
    trace_log: Optional[object] = None


def record_app(
    app: str,
    *,
    nranks: Optional[int] = None,
    size: Optional[int] = None,
    inject_race: bool = False,
    out: Optional[Union[str, Path]] = None,
) -> RecordResult:
    """Run ``app`` on ``nranks`` simulated ranks and record its trace.

    With ``out`` set the trace streams to that ``repro-trace-v2`` file
    and never accumulates in memory; without it the (small) run's
    :class:`~repro.mpi.trace.TraceLog` is returned for direct replay.
    """
    spec = RECORDABLE_APPS.get(app)
    if spec is None:
        raise ValueError(
            f"unknown app {app!r}; have {sorted(RECORDABLE_APPS)}"
        )
    if inject_race and not spec.supports_race_injection:
        raise ValueError(f"--inject-race is not supported for {app!r}")
    nranks = nranks or spec.default_ranks
    size = size or spec.default_size
    program, args = spec.builder(nranks, size, inject_race)
    # the simulator is imported per recording, not with the pipeline
    # package: trace analysis never runs it
    from ..mpi.simulator import World

    if out is None:
        world = World(nranks, [], trace=True)
        world.run(program, *args)
        return RecordResult(app, nranks, len(world.trace_log),
                            trace_log=world.trace_log)

    path = Path(out)
    with BinaryTraceWriter(path, nranks=nranks) as writer:
        log = StreamingTraceLog(writer.write)
        world = World(nranks, [], trace=log)
        world.run(program, *args)
    return RecordResult(app, nranks, writer.events_written, path=path)
