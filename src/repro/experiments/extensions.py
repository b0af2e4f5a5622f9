"""Experiment driver for the implemented future-work extensions.

One summary table covering what this reproduction adds beyond the
paper's evaluation:

* §6(3) strided merging — MiniVite BST node counts for the original
  tool, the paper's algorithm, and the strided extension;
* §2.1 atomicity — histogram verdicts for the accumulate / manual /
  fetch-and-op variants;
* per-target exclusive locks — verdicts for the lock-fixed variant
  (our detector clean; flush-blind and lock_all-only tools cry wolf).
"""

from __future__ import annotations

from typing import List

from ..apps import (
    HistogramConfig,
    HistogramResult,
    MiniViteConfig,
    MiniViteResult,
    default_graph,
    histogram_program,
    make_comm_plan,
    minivite_program,
)
from ..core import FlatDetector, StridedDetector
from ..detectors import MustRma, RmaAnalyzerLegacy
from ..mpi import World
from .tables import ExperimentResult, render_table

__all__ = ["extensions_summary"]


def _minivite_nodes(nvertices: int = 4096, nranks: int = 8) -> List[List]:
    config = MiniViteConfig(nvertices=nvertices)
    graph = default_graph(config)
    plan = make_comm_plan(graph, nranks)
    rows = []
    for factory in (RmaAnalyzerLegacy, FlatDetector, StridedDetector):
        det = factory()
        World(nranks, [det]).run(minivite_program, graph, plan, config,
                                 MiniViteResult())
        rows.append([det.name, det.node_stats().total_max_nodes,
                     det.reports_total])
    return rows


def _histogram_verdicts(nranks: int = 4) -> List[List]:
    variants = [
        ("MPI_Accumulate", HistogramConfig(samples_per_rank=64)),
        ("MPI_Fetch_and_op", HistogramConfig(samples_per_rank=64,
                                             use_accumulate=False,
                                             use_fetch_op=True)),
        ("manual Get+Put (buggy)", HistogramConfig(samples_per_rank=64,
                                                   use_accumulate=False)),
        ("exclusive-lock RMW", HistogramConfig(samples_per_rank=64,
                                               use_accumulate=False,
                                               use_locks=True)),
    ]
    rows = []
    for label, config in variants:
        row: List = [label]
        for factory in (FlatDetector, RmaAnalyzerLegacy, MustRma):
            det = factory()
            World(nranks, [det]).run(histogram_program, config,
                                     HistogramResult())
            row.append("error" if det.race_detected else "clean")
        rows.append(row)
    return rows


def extensions_summary() -> ExperimentResult:
    """Strided merging, atomic operations and per-target locks, measured."""
    minivite_rows = _minivite_nodes()
    histogram_rows = _histogram_verdicts()

    text = (
        "strided merging (§6(3) future work) — MiniVite BST nodes:\n"
        + render_table(["tool", "BST nodes (peak)", "races"], minivite_rows)
        + "\n\natomics & locks — distributed-histogram verdicts:\n"
        + render_table(
            ["variant", "Our Contribution", "RMA-Analyzer", "MUST-RMA"],
            histogram_rows,
        )
        + "\n\nonly the manual Get+Put variant is a real race; the lock "
        "variant needs per-target-lock + precise flush support to prove "
        "safe (§5.1/§6 limitations of the other tools)"
    )
    return ExperimentResult(
        "extensions",
        "Future-work extensions: strided merging, atomics, target locks",
        text,
        data={
            "minivite": {r[0]: r[1] for r in minivite_rows},
            "histogram": {r[0]: r[1:] for r in histogram_rows},
        },
    )
