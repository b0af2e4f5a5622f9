"""Bench: paper Fig. 8b / Code 2 — merging collapses the loop's BST.

Also times the two detectors on the same 1,000-iteration Get loop: the
original tool pays log(5,002)-deep operations on its ever-growing tree,
ours works on a 2-node tree.
"""

import pytest

from repro.core import FlatDetector
from repro.detectors import RmaAnalyzerLegacy
from repro.experiments import fig8_code2
from repro.microbench import code2_program
from repro.mpi import World


def test_fig8_regenerate(once):
    result = once(fig8_code2)
    assert result.data["RMA-Analyzer"] == 5002
    assert result.data["Our Contribution"] == 2


@pytest.mark.parametrize("factory", [RmaAnalyzerLegacy, FlatDetector],
                         ids=["legacy", "ours"])
def test_code2_analysis_speed(benchmark, factory):
    def run():
        det = factory()
        World(2, [det]).run(code2_program)
        return det

    det = benchmark.pedantic(run, rounds=2, iterations=1, warmup_rounds=0)
    nodes = det.node_stats().max_nodes_per_rank[0]
    assert nodes == (2 if factory is FlatDetector else 5002)
