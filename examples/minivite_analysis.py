#!/usr/bin/env python
"""MiniVite under the race detectors — the Figs 11/12 + Table 4 story.

Runs one phase of distributed Louvain (the paper's MiniVite workload)
on the simulated runtime, once per tool, and prints:

* the simulated execution time of every tool vs the baseline,
* the per-rank BST node counts of the original RMA-Analyzer vs our
  contribution (Table 4: the reduction is tiny — MiniVite's per-vertex
  attribute accesses are not adjacent, so almost nothing merges).

Usage::

    python examples/minivite_analysis.py [nvertices] [nranks]
"""

import sys

from repro.apps import (
    MiniViteConfig,
    MiniViteResult,
    default_graph,
    detector_factory,
    make_comm_plan,
    minivite_program,
    run_app,
)
from repro.detectors import detector_names
from repro.experiments import render_table


def main(nvertices: int = 8192, nranks: int = 8) -> None:
    config = MiniViteConfig(nvertices=nvertices)
    graph = default_graph(config)
    plan = make_comm_plan(graph, nranks)
    print(f"graph: {graph.nvertices:,} vertices, {graph.nedges:,} edges, "
          f"{nranks} ranks")

    result = MiniViteResult()
    rows = []
    for tool in ("Baseline",) + detector_names("paper"):
        run = run_app("minivite", minivite_program, nranks,
                      detector_factory(tool)(),
                      graph, plan, config, result)
        rows.append([
            tool,
            run.sim_elapsed_ms,
            run.analysis_seconds,
            run.max_nodes_one_rank,
            run.races,
        ])

    print()
    print(render_table(
        ["tool", "sim time (ms)", "analysis wall (s)",
         "BST nodes (max/rank)", "races"],
        rows,
    ))
    print(f"\nLouvain result: {result.communities_before:,} -> "
          f"{result.communities_after:,} communities, "
          f"modularity {result.modularity:.3f}")

    legacy = next(r for r in rows if r[0] == "RMA-Analyzer")
    ours = next(r for r in rows if r[0] == "Our Contribution")
    reduction = 100.0 * (legacy[3] - ours[3]) / max(legacy[3], 1)
    print(f"node reduction vs RMA-Analyzer: {reduction:.2f}% "
          f"(paper Table 4: 0.04%-6.29%)")


if __name__ == "__main__":
    args = [int(a) for a in sys.argv[1:3]]
    main(*args)
