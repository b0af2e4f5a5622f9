"""Ablation benches for the design choices DESIGN.md calls out.

* **merge off** — §4.1 warns fragmentation alone can explode the node
  count (each insert: -1 node, +3 nodes); merging is what bounds it.
* **legacy vs interval search** — the lower-bound-only search is the
  false-negative source; the interval-tree search costs a balanced
  traversal but never misses.
* **alias filter off** — quantifies what the LLVM alias analysis saves
  RMA-Analyzer (and what MUST-RMA pays for not having it).
* **AVL balancing off** — §4.2's logarithmic-complexity claim rests on
  the balanced tree; ascending insertions degrade a plain BST to a list.
"""

import random

import pytest

from repro.aliasing import FilterPolicy
from repro.apps import (
    MiniViteConfig,
    MiniViteResult,
    default_graph,
    make_comm_plan,
    minivite_program,
)
from repro.bst import IntervalBST, legacy_find_overlapping
from repro.core import FlatDetector, insert_access
from repro.intervals import Interval
from repro.mpi import World
from tests.conftest import LR, RW, acc


class TestMergeAblation:
    def test_fragmentation_only_explodes(self, once):
        def run(enable_merge):
            from repro.microbench import code2_program

            det = FlatDetector(enable_merge=enable_merge)
            World(2, [det]).run(code2_program, 500)
            return det.node_stats().max_nodes_per_rank[0]

        frag_only = once(run, False)
        full = run(True)
        assert full == 2
        assert frag_only > 100 * full  # the explosion §4.1 warns about


class TestSearchAblation:
    @staticmethod
    def _workload(n=2000, seed=11):
        rng = random.Random(seed)
        return [
            acc(lo, lo + rng.randint(1, 24), LR, line=rng.randint(1, 4))
            for lo in (rng.randint(0, 4000) for _ in range(n))
        ]

    def test_legacy_search_misses_overlaps(self, benchmark):
        accesses = self._workload()
        bst = IntervalBST()
        for a in accesses:
            bst.insert(a)
        queries = [Interval(i * 16, i * 16 + 8) for i in range(250)]

        def run_legacy():
            return sum(len(legacy_find_overlapping(bst, q)) for q in queries)

        legacy_hits = benchmark(run_legacy)
        correct_hits = sum(len(bst.find_overlapping(q)) for q in queries)
        assert legacy_hits < correct_hits  # misses = false-negative risk

    def test_interval_search_cost(self, benchmark):
        accesses = self._workload()
        bst = IntervalBST()
        for a in accesses:
            bst.insert(a)
        queries = [Interval(i * 16, i * 16 + 8) for i in range(250)]
        hits = benchmark(lambda: sum(len(bst.find_overlapping(q)) for q in queries))
        assert hits > 0


class TestAliasFilterAblation:
    def test_filter_saves_work(self, once):
        config = MiniViteConfig(nvertices=2048)
        graph = default_graph(config)
        plan = make_comm_plan(graph, 4)

        def run(policy):
            det = FlatDetector(filter_policy=policy)
            World(4, [det]).run(
                minivite_program, graph, plan, config, MiniViteResult()
            )
            return det.node_stats()

        unfiltered = once(run, FilterPolicy.ALL)
        filtered = run(FilterPolicy.ALIAS)
        assert filtered.accesses_processed < unfiltered.accesses_processed
        assert filtered.accesses_filtered > 0


class TestBalanceAblation:
    def test_unbalanced_tree_degrades_on_ascending_keys(self, benchmark):
        """Code-2-like ascending insertions: the paper's log-time claim
        needs the balanced tree."""
        N = 1500

        def run_balanced():
            bst = IntervalBST(balanced=True)
            for i in range(N):
                insert_access(acc(4 * i, 4 * i + 2, RW, line=i % 7), bst)
            return bst

        bst = benchmark(run_balanced)
        assert bst.height() <= 2 * (N.bit_length() + 1)

        import sys

        old_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(20 * N)  # the degenerate tree recurses per level
        try:
            unbalanced = IntervalBST(balanced=False)
            for i in range(N):
                insert_access(acc(4 * i, 4 * i + 2, RW, line=i % 7), unbalanced)
            # a plain BST degenerates towards a list on sorted input
            assert unbalanced.height() > 10 * bst.height()
        finally:
            sys.setrecursionlimit(old_limit)
