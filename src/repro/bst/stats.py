"""Operation counters shared by every interval store.

:class:`TreeStats` is what the node-linked :class:`~repro.bst.avl.AVLTree`
and the flat :class:`~repro.bst.flat.FlatIntervalStore` both count
into, and what the detectors publish as ``bst.*`` metrics.  It lives
apart from the AVL tree so the flat core never imports the node-linked
tree.
"""

from __future__ import annotations

from typing import List, Optional

from .._fields import Fields

__all__ = ["FANOUT_NBUCKETS", "TreeStats"]


#: fan-out buckets match ``repro.obs.registry.BUCKET_BOUNDS`` (powers of
#: two up to 2**20 plus overflow) so ``publish_obs`` can fold them into
#: an obs histogram bucket for bucket.  Kept as a literal: this module
#: stays importable without repro.obs and the obs side asserts equality.
FANOUT_NBUCKETS = 22


class TreeStats(Fields):
    """Operation counters used by the overhead analyses (Figs 10-12).

    ``comparisons`` and ``rotations`` count a store's own work: key
    comparisons during descents and rebalancing rotations in the AVL
    tree, bisect probes and no rotations in the flat store (see
    :mod:`repro.bst.flat`).  Every other counter means the same in
    every store.  ``max_size`` tracks the high-water node count — the
    quantity reported in the paper's Table 4.  ``queries`` /
    ``query_hits`` / ``fanout`` account the stabbing queries and their
    fan-out k (the O(log n + k) term): plain always-on integers here,
    surfaced as obs metrics only at publication time, because the query
    path is too hot for per-call registry traffic.
    """

    _fields = ("comparisons", "rotations", "inserts", "removals",
               "max_size", "queries", "query_hits", "max_fanout", "fanout")

    def __init__(self, comparisons: int = 0, rotations: int = 0,
                 inserts: int = 0, removals: int = 0, max_size: int = 0,
                 queries: int = 0, query_hits: int = 0, max_fanout: int = 0,
                 fanout: Optional[List[int]] = None) -> None:
        self.comparisons = comparisons
        self.rotations = rotations
        self.inserts = inserts
        self.removals = removals
        self.max_size = max_size
        self.queries = queries
        self.query_hits = query_hits
        self.max_fanout = max_fanout
        self.fanout = [0] * FANOUT_NBUCKETS if fanout is None else fanout

    def note_query(self, k: int) -> None:
        """Account one overlap query returning ``k`` stored accesses."""
        self.queries += 1
        self.query_hits += k
        if k > self.max_fanout:
            self.max_fanout = k
        b = k.bit_length() if k > 0 else 0
        self.fanout[b if b < FANOUT_NBUCKETS else FANOUT_NBUCKETS - 1] += 1

    def to_dict(self) -> dict:
        """Checkpointable copy (``repro-ckpt-v1`` detector state)."""
        return {
            "comparisons": self.comparisons,
            "rotations": self.rotations,
            "inserts": self.inserts,
            "removals": self.removals,
            "max_size": self.max_size,
            "queries": self.queries,
            "query_hits": self.query_hits,
            "max_fanout": self.max_fanout,
            "fanout": list(self.fanout),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TreeStats":
        stats = cls(**{k: d[k] for k in (
            "comparisons", "rotations", "inserts", "removals", "max_size",
            "queries", "query_hits", "max_fanout")})
        stats.fanout = list(d["fanout"])
        return stats

    def merge(self, other: "TreeStats") -> None:
        self.comparisons += other.comparisons
        self.rotations += other.rotations
        self.inserts += other.inserts
        self.removals += other.removals
        self.max_size = max(self.max_size, other.max_size)
        self.queries += other.queries
        self.query_hits += other.query_hits
        self.max_fanout = max(self.max_fanout, other.max_fanout)
        for i, n in enumerate(other.fanout):
            self.fanout[i] += n
