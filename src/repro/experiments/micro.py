"""Experiment drivers for the algorithm-level tables and figures.

* Table 1 — the access-type combination table,
* Fig. 3 — the three-process race matrix,
* Fig. 5 / Code 1 — the lower-bound false negative,
* Fig. 8b / Code 2 — the merging worked example (5,002 -> 2 nodes),
* Table 2 — tool feedback on the four named microbenchmarks,
* Table 3 — the FP/FN/TP/TN confusion matrix over the whole suite.
"""

from __future__ import annotations

from typing import Dict, List

from ..core import FlatDetector
from ..detectors import McCChecker, MustRma, ParkMirror, RmaAnalyzerLegacy
from ..intervals import fig3_matrix, format_fig3, table1_rows
from ..microbench import (
    TABLE2_NAMES,
    code1_program,
    code2_program,
    run_code,
    run_suite,
    suite_by_name,
)
from ..mpi import World
from .tables import ExperimentResult, render_table

__all__ = [
    "table1_combine",
    "fig3_race_matrix",
    "fig5_code1",
    "fig8_code2",
    "table2_named_codes",
    "table3_confusion",
    "PAPER_TABLE3",
]

#: the paper's Table 3 row values (RMA-Analyzer's row is internally
#: inconsistent in the paper — 41+0+6+107 = 154 but TN should then be 101;
#: see EXPERIMENTS.md)
PAPER_TABLE3 = {
    "RMA-Analyzer": {"FP": 6, "FN": 0, "TP": 41, "TN": 107},
    "MUST-RMA": {"FP": 0, "FN": 15, "TP": 32, "TN": 107},
    "Our Contribution": {"FP": 0, "FN": 0, "TP": 47, "TN": 107},
}


def table1_combine() -> ExperimentResult:
    """Regenerate paper Table 1 from the combination semantics."""
    headers = ["stored \\ new", "Local_R-2", "Local_W-2", "RMA_R-2", "RMA_W-2"]
    rows = table1_rows()
    return ExperimentResult(
        "table1",
        "Resulting access type and debug info of an intersection fragment",
        render_table(headers, rows),
        data={"rows": rows},
    )


def fig3_race_matrix() -> ExperimentResult:
    """Regenerate paper Fig. 3 from the race predicate."""
    matrix = fig3_matrix()
    return ExperimentResult(
        "fig3",
        "Race matrix for 3 processes (left bit: target, right bit: origin)",
        format_fig3(matrix),
        data={
            "matrix": {
                (op1.value, caller.value, op2.value): {
                    pl.value: bits for pl, bits in cells.items()
                }
                for (op1, caller, op2), cells in matrix.items()
            }
        },
    )


def fig5_code1() -> ExperimentResult:
    """Code 1: the original tool misses the race, ours reports it."""
    rows = []
    data: Dict[str, int] = {}
    messages: List[str] = []
    for factory in (RmaAnalyzerLegacy, FlatDetector):
        det = factory()
        World(2, [det]).run(code1_program)
        rows.append([det.name, det.reports_total > 0, det.reports_total])
        data[det.name] = det.reports_total
        messages.extend(r.message for r in det.reports[:1])
    return ExperimentResult(
        "fig5",
        "Code 1 (Load(4); MPI_Put(2,12); Store(7)) — detection outcome",
        render_table(["tool", "race detected", "reports"], rows)
        + ("\n\n" + "\n".join(messages) if messages else ""),
        data=data,
    )


def fig8_code2(iterations: int = 1000) -> ExperimentResult:
    """Code 2: BST size with and without fragmentation+merging."""
    rows = []
    data: Dict[str, int] = {}
    for factory in (RmaAnalyzerLegacy, FlatDetector):
        det = factory()
        World(2, [det]).run(code2_program, iterations)
        nodes = det.node_stats().max_nodes_per_rank.get(0, 0)
        rows.append([det.name, iterations, nodes])
        data[det.name] = nodes
    return ExperimentResult(
        "fig8",
        "Code 2 (one-sided communication in a loop) — origin BST size",
        render_table(["tool", "iterations", "BST nodes (rank 0)"], rows),
        data=data,
    )


def table2_named_codes() -> ExperimentResult:
    """Tool feedback on the four named microbenchmarks of Table 2."""
    suite = suite_by_name()
    factories = [RmaAnalyzerLegacy, MustRma, FlatDetector]
    headers = ["code", "expected"] + [f().name for f in factories]
    rows = []
    data: Dict[str, Dict[str, bool]] = {}
    for name in TABLE2_NAMES:
        spec = suite[name]
        row: List[object] = [name, spec.expected]
        data[name] = {}
        for factory in factories:
            det = factory()
            reported, _ = run_code(spec, det)
            row.append("error" if reported else "none")
            data[name][det.name] = reported
        rows.append(row)
    return ExperimentResult(
        "table2",
        "Feedback on four microbenchmark codes (paper Table 2)",
        render_table(headers, rows),
        data=data,
    )


def table3_confusion(
    *, include_related_work: bool = False
) -> ExperimentResult:
    """FP/FN/TP/TN of every tool over the generated suite (paper Table 3)."""
    factories = [RmaAnalyzerLegacy, MustRma, FlatDetector]
    if include_related_work:
        factories += [ParkMirror, McCChecker]
    rows = []
    data: Dict[str, Dict[str, int]] = {}
    for factory in factories:
        matrix = run_suite(factory)
        rows.append(
            [matrix.detector, matrix.fp, matrix.fn, matrix.tp, matrix.tn,
             len(matrix.verdicts)]
        )
        data[matrix.detector] = {
            "FP": matrix.fp, "FN": matrix.fn, "TP": matrix.tp, "TN": matrix.tn,
        }
    note = (
        "paper suite: 154 codes (47 race / 107 safe); regenerated suite is "
        "larger but reproduces the discriminating counts (6 FP legacy, "
        "15 FN MUST-RMA, 0/0 ours)"
    )
    return ExperimentResult(
        "table3",
        "Confusion matrix over the microbenchmark suite (paper Table 3)",
        render_table(["tool", "FP", "FN", "TP", "TN", "codes"], rows)
        + f"\n\n{note}",
        data=data,
    )
