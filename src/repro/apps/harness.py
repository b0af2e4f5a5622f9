"""Shared runner for the application-scale experiments.

Runs one application under one detector configuration and collects the
quantities the paper's evaluation reports:

* wall-clock time of the whole simulation and of the detector alone
  (the "overhead of the analysis at runtime"),
* the simulated cluster time from the cost model (compute + comm +
  sync + analysis, per rank; the makespan is Fig. 11/12's "execution
  time"),
* detector node statistics (Table 4, the Fig. 10 narrative),
* race reports (expected clean for the shipped apps unless a race is
  injected).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

from .. import obs
from ..detectors import detector_class, detector_names
from ..mpi import CostParams, World
from ..mpi.interposition import DetectorProtocol

__all__ = ["AppRun", "run_app", "detector_factory"]


@dataclass
class AppRun:
    """Everything measured in one (app, detector, params) execution."""

    app: str
    detector: str
    nranks: int
    wall_seconds: float
    analysis_seconds: float
    sim_elapsed_ms: float
    sim_breakdown: Dict[str, float]
    races: int
    total_max_nodes: int
    max_nodes_one_rank: int
    accesses_processed: int
    accesses_filtered: int
    extra: Dict[str, Any] = field(default_factory=dict)

    @property
    def label(self) -> str:
        return f"{self.app}/{self.detector}@{self.nranks}"


def run_app(
    app: str,
    program: Callable,
    nranks: int,
    detector: Optional[DetectorProtocol],
    *args: Any,
    cost_params: Optional[CostParams] = None,
    **kwargs: Any,
) -> AppRun:
    """Run ``program`` on ``nranks`` simulated ranks under ``detector``."""
    detectors = [detector] if detector is not None else []
    world = World(nranks, detectors, cost_params=cost_params)
    extra: Dict[str, Any] = {}
    with obs.scope() as reg:
        t0 = time.perf_counter()
        world.run(program, *args, **kwargs)
        wall = time.perf_counter() - t0

        name = detector.name if detector is not None else "Baseline"
        races = getattr(detector, "reports_total", 0) if detector else 0
        if detector is not None and reg.enabled:
            # the registry is the single source of truth for the node
            # counts: publish the detector's final statistics, then read
            # them back out of the same snapshot the CLI metrics print
            detector.publish_obs()
            snap = reg.snapshot()
            counters = snap["counters"]
            gauges = snap["gauges"]

            def _c(metric: str) -> int:
                return counters.get(
                    obs.metric_key(metric, {"tool": name}), 0)

            total_max = _c("bst.nodes_peak")
            # read the gauge's peak: values sum across merged
            # registries, peaks max — and "one rank" is a max by nature
            max_one = gauges.get(
                obs.metric_key("bst.nodes_peak_one_rank", {"tool": name}),
                {"peak": 0})["peak"]
            processed = _c("detector.processed")
            filtered = _c("detector.filtered")
            extra["obs"] = snap
        elif detector is not None:  # REPRO_OBS=off: ask the detector
            stats = detector.node_stats()
            total_max = stats.total_max_nodes
            max_one = stats.max_nodes_one_rank
            processed = stats.accesses_processed
            filtered = stats.accesses_filtered
        else:
            total_max = max_one = processed = filtered = 0

    analysis = world.interposition.analysis_wall.get(name, 0.0)
    breakdown = {
        cat: world.clock.total(cat) / 1e6
        for cat in ("compute", "comm", "sync", "analysis")
    }
    return AppRun(
        app=app,
        detector=name,
        nranks=nranks,
        wall_seconds=wall,
        analysis_seconds=analysis,
        sim_elapsed_ms=world.clock.elapsed_ms(),
        sim_breakdown=breakdown,
        races=races,
        total_max_nodes=total_max,
        max_nodes_one_rank=max_one,
        accesses_processed=processed,
        accesses_filtered=filtered,
        extra=extra,
    )


def detector_factory(name: str) -> Callable[[], Optional[DetectorProtocol]]:
    """Factory by paper name (a Fig. 10 bar); 'Baseline' yields no
    detector at all."""
    if name == "Baseline":
        return _baseline
    try:
        return detector_class(name, by="paper")
    except ValueError:
        raise KeyError(f"unknown detector {name!r}; have "
                       f"{sorted(('Baseline',) + detector_names('paper'))}"
                       ) from None


def _baseline() -> None:
    return None
