#!/usr/bin/env python
"""The §7 future-work pipeline: static analysis + the strided extension.

1. Run the compile-time local-concurrency checker on the paper's Code 1
   — the race is proven *before execution*, with both source lines.
2. Evaluate the static pass over the whole microbenchmark suite: the
   origin-side races are caught pre-run (zero static false positives);
   the static/dynamic combination drops provably race-free lines from
   runtime instrumentation.
3. Show the §6(3) strided-merging extension shrinking MiniVite's BST by
   an order of magnitude where the paper's adjacency-only merging gets
   less than one percent.

Usage::

    python examples/compile_time_check.py
"""

from repro.apps import (
    MiniViteConfig,
    MiniViteResult,
    default_graph,
    make_comm_plan,
    minivite_program,
)
from repro.core import FlatDetector, StridedDetector
from repro.detectors import RmaAnalyzerLegacy
from repro.experiments import static_analysis
from repro.mpi import World
from repro.staticcheck import check_program, code1_static


def main() -> None:
    print("== compile-time check of Code 1 (Fig. 8a) ==")
    report = check_program(code1_static())
    for race in report.races:
        print(" ", race.message)
    assert not report.clean

    print("\n== static pass over the microbenchmark suite ==")
    print(static_analysis())

    print("\n== strided merging (the §6(3) extension) on MiniVite ==")
    config = MiniViteConfig(nvertices=4096)
    graph = default_graph(config)
    plan = make_comm_plan(graph, 8)
    for factory in (RmaAnalyzerLegacy, FlatDetector, StridedDetector):
        detector = factory()
        World(8, [detector]).run(minivite_program, graph, plan, config,
                                 MiniViteResult())
        nodes = detector.node_stats().total_max_nodes
        print(f"  {detector.name:28s} BST nodes: {nodes:,}")


if __name__ == "__main__":
    main()
