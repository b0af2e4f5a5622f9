"""Balanced interval BSTs (the storage substrate of RMA-Analyzer).

* :class:`AVLTree` — generic from-scratch AVL multiset with augmentation,
* :class:`IntervalBST` — accesses keyed by interval lower bound with a
  correct O(log n + k) overlap query,
* :func:`legacy_find_overlapping` — the original unsound path-limited
  search (paper §4.1) used by the baseline detector,
* :class:`FlatIntervalStore` — disjoint intervals in sorted typed-array
  blocks, found by bisection (§4.1 keeps a store's intervals disjoint,
  so no tree is needed), backing the flat detector core
  (:mod:`repro.core.flatcore`),
* :class:`TreeStats` — the operation counters every store keeps.

Exports resolve lazily (:mod:`repro._lazy`): the flat core imports
only :mod:`repro.bst.flat`, never the node-linked AVL tree.
"""

from .._lazy import lazy_exports

#: public name -> defining submodule
_EXPORTS = {
    "AVLNode": ".avl",
    "AVLTree": ".avl",
    "dump_bst": ".dump",
    "dump_detector_stores": ".dump",
    "FLAT_LAYOUT": ".flat",
    "FlatIntervalStore": ".flat",
    "IntervalBST": ".interval_tree",
    "legacy_find_overlapping": ".legacy_search",
    "TreeStats": ".stats",
}

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
