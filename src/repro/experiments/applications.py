"""Experiment drivers for the application-scale evaluation (§5.3).

* Fig. 9  — the data race injected into MiniVite and its report,
* Fig. 10 — cumulative epoch time in CFD-Proxy for the four tools,
* Fig. 11 — MiniVite execution time vs rank count (small input),
* Fig. 12 — same with the doubled input,
* Table 4 — MiniVite BST node counts, RMA-Analyzer vs ours.

Scale note: the paper ran 640,000 / 1,280,000-vertex graphs on 2-16
cluster nodes.  The drivers default to laptop-scale inputs with the
same 1:2 size ratio and the same 32-256 rank sweep; absolute numbers
differ, the comparisons' shape is the reproduction target (see
EXPERIMENTS.md).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..apps import (
    AppRun,
    CfdConfig,
    CfdResult,
    MiniViteConfig,
    MiniViteResult,
    cfd_program,
    default_graph,
    default_partitions,
    detector_factory,
    make_comm_plan,
    minivite_program,
    run_app,
)
from ..core import FlatDetector
from ..mpi import World
from .tables import ExperimentResult, render_bars, render_table

__all__ = [
    "fig9_minivite_race",
    "fig10_cfd_epoch_time",
    "fig11_minivite_small",
    "fig12_minivite_large",
    "table4_bst_nodes",
    "minivite_rank_sweep",
    "DEFAULT_RANK_SWEEP",
    "FIG11_VERTICES",
    "FIG12_VERTICES",
]

#: the paper sweeps 32..256 ranks; scaled default for a laptop run
DEFAULT_RANK_SWEEP = (8, 16, 32, 64)
#: paper: 640,000 and 1,280,000 vertices; scaled 1:40 keeping the 1:2 ratio
FIG11_VERTICES = 16_000
FIG12_VERTICES = 32_000

_TOOL_ORDER = ("Baseline", "RMA-Analyzer", "MUST-RMA", "Our Contribution")


def fig9_minivite_race(
    nvertices: int = 2048, nranks: int = 4
) -> ExperimentResult:
    """Duplicate MiniVite's MPI_Put (Fig. 9a) and show the report (9b)."""
    config = MiniViteConfig(nvertices=nvertices, inject_put_race=True)
    graph = default_graph(config)
    plan = make_comm_plan(graph, nranks)
    det = FlatDetector()
    World(nranks, [det]).run(
        minivite_program, graph, plan, config, MiniViteResult()
    )
    messages = [r.message for r in det.reports[:2]]
    body = "\n".join(f"$ mpiexec -n {nranks} ./miniVite -n {nvertices}"
                     .splitlines() + messages)
    return ExperimentResult(
        "fig9",
        "Injected MPI_Put race in MiniVite and the returned report",
        body,
        data={
            "races": det.reports_total,
            "messages": messages,
        },
    )


def fig10_cfd_epoch_time(
    nranks: int = 12,
    iterations: int = 50,
    config: Optional[CfdConfig] = None,
) -> ExperimentResult:
    """Cumulative time spent in the epochs of CFD-Proxy, per tool."""
    config = config or CfdConfig(iterations=iterations)
    parts = default_partitions(nranks, config)
    runs: List[AppRun] = []
    for tool in _TOOL_ORDER:
        det = detector_factory(tool)()
        runs.append(
            run_app("cfd-proxy", cfd_program, nranks, det, parts, config,
                    CfdResult())
        )
    labels = [r.detector for r in runs]
    values = [r.sim_elapsed_ms for r in runs]
    rows = [
        [r.detector, r.sim_elapsed_ms, r.analysis_seconds, r.total_max_nodes,
         r.races]
        for r in runs
    ]
    text = (
        render_bars(labels, values, unit=" ms (simulated epoch time)")
        + "\n\n"
        + render_table(
            ["tool", "sim epoch time (ms)", "analysis wall (s)",
             "BST nodes (peak)", "race reports"],
            rows,
        )
    )
    return ExperimentResult(
        "fig10",
        f"CFD-Proxy cumulative epoch time ({nranks} ranks, "
        f"{config.iterations} iterations)",
        text,
        data={r.detector: r for r in runs},
    )


def minivite_rank_sweep(
    nvertices: int,
    rank_sweep: Sequence[int] = DEFAULT_RANK_SWEEP,
    tools: Sequence[str] = _TOOL_ORDER,
    sweeps: int = 1,
) -> Dict[int, Dict[str, AppRun]]:
    """Run MiniVite for every (rank count, tool) combination."""
    out: Dict[int, Dict[str, AppRun]] = {}
    config = MiniViteConfig(nvertices=nvertices, sweeps=sweeps)
    graph = default_graph(config)
    for nranks in rank_sweep:
        plan = make_comm_plan(graph, nranks)
        out[nranks] = {}
        for tool in tools:
            det = detector_factory(tool)()
            out[nranks][tool] = run_app(
                "minivite", minivite_program, nranks, det, graph, plan,
                config, MiniViteResult(),
            )
    return out


def _minivite_figure(
    exp_id: str, nvertices: int, rank_sweep: Sequence[int]
) -> ExperimentResult:
    sweep = minivite_rank_sweep(nvertices, rank_sweep)
    headers = ["ranks"] + list(_TOOL_ORDER)
    rows = []
    for nranks in rank_sweep:
        rows.append(
            [nranks]
            + [sweep[nranks][tool].sim_elapsed_ms for tool in _TOOL_ORDER]
        )
    return ExperimentResult(
        exp_id,
        f"MiniVite execution time (ms, simulated) — {nvertices:,} vertices",
        render_table(headers, rows),
        data={"sweep": sweep, "nvertices": nvertices},
    )


def fig11_minivite_small(
    nvertices: int = FIG11_VERTICES,
    rank_sweep: Sequence[int] = DEFAULT_RANK_SWEEP,
) -> ExperimentResult:
    """Paper Fig. 11 (640,000 vertices, scaled)."""
    return _minivite_figure("fig11", nvertices, rank_sweep)


def fig12_minivite_large(
    nvertices: int = FIG12_VERTICES,
    rank_sweep: Sequence[int] = DEFAULT_RANK_SWEEP,
) -> ExperimentResult:
    """Paper Fig. 12 (1,280,000 vertices, scaled — 2x Fig. 11)."""
    return _minivite_figure("fig12", nvertices, rank_sweep)


def table4_bst_nodes(
    small: int = FIG11_VERTICES,
    large: int = FIG12_VERTICES,
    rank_sweep: Sequence[int] = DEFAULT_RANK_SWEEP,
) -> ExperimentResult:
    """MiniVite BST node counts: RMA-Analyzer vs ours, both inputs."""
    tools = ("RMA-Analyzer", "Our Contribution")
    rows = []
    data: Dict[Tuple[int, int], Dict[str, int]] = {}
    for nranks in rank_sweep:
        cells: Dict[int, Dict[str, int]] = {}
        for nvertices in (small, large):
            sweep = minivite_rank_sweep(nvertices, [nranks], tools)
            cells[nvertices] = {
                tool: sweep[nranks][tool].max_nodes_one_rank for tool in tools
            }
            data[(nranks, nvertices)] = cells[nvertices]
        legacy_s = cells[small]["RMA-Analyzer"]
        ours_s = cells[small]["Our Contribution"]
        legacy_l = cells[large]["RMA-Analyzer"]
        ours_l = cells[large]["Our Contribution"]
        red_s = 100.0 * (legacy_s - ours_s) / legacy_s if legacy_s else 0.0
        red_l = 100.0 * (legacy_l - ours_l) / legacy_l if legacy_l else 0.0
        rows.append(
            [nranks, f"{legacy_s:,}/{legacy_l:,}", f"{ours_s:,}/{ours_l:,}",
             f"{red_s:.2f}%/{red_l:.2f}%"]
        )
    return ExperimentResult(
        "table4",
        f"MiniVite BST nodes per rank ({small:,}/{large:,} vertices)",
        render_table(
            ["ranks", "RMA-Analyzer", "Our Contribution", "Reduction"], rows
        ),
        data={"cells": data},
    )
