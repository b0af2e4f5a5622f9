"""The original RMA-Analyzer (Aitkaci et al. 2021) — the paper's baseline.

Behavioural model of the tool *before* the paper's improvements, with
all three defects the paper attributes to it:

1. **Lower-bound-only search** (§4.1): the race check and the
   intersection retrieval walk a single BST path chosen by the new
   access's lower bound (:func:`legacy_find_overlapping`), so an
   intersecting wide interval off that path is missed — the Code 1
   false negative of Fig. 5a.
2. **No fragmentation, no merging**: every access is appended as its
   own node, so the BST grows linearly with the number of dynamic
   accesses (Code 2: 5,002 nodes; CFD-Proxy: 90,004 nodes).
3. **Order-insensitive race predicate** (§5.2): ``Load`` followed by
   ``MPI_Get`` on the same buffer by the same process is flagged even
   though program order makes it safe — the 6 false positives of
   Table 3 (``ll_load_get_*`` and friends).

It also ignores ``MPI_Win_flush`` and ``MPI_Barrier`` entirely ("not
well instrumented", §6), which is what produces the CFD-Proxy false
positive across flush-synchronized iterations.
"""

from __future__ import annotations

from ..aliasing import FilterPolicy
from ..bst import IntervalBST, legacy_find_overlapping
from ..intervals import MemoryAccess, is_race_legacy
from .bst_common import BstDetector

__all__ = ["RmaAnalyzerLegacy"]


class RmaAnalyzerLegacy(BstDetector):
    """The unimproved tool: append-only multiset + path-limited search."""

    name = "RMA-Analyzer"
    store_cls = IntervalBST

    def __init__(self, **kwargs) -> None:
        kwargs.setdefault("filter_policy", FilterPolicy.ALIAS)
        super().__init__(**kwargs)

    def _check(
        self, bst: IntervalBST, access: MemoryAccess, rank: int, wid: int
    ) -> None:
        # first traversal: the (unsound) intersection search
        for stored in legacy_find_overlapping(bst, access.interval):
            if is_race_legacy(stored, access):
                self._report(rank, wid, stored, access,
                             phase="legacy_search")
                return  # the real tool aborts at the first race

    def _insert(self, bst: IntervalBST, access: MemoryAccess) -> None:
        # second traversal: plain multiset insertion, nothing is merged
        bst.insert(access)
