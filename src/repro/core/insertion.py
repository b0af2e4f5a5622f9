"""Algorithm 1 of the paper: the new BST insertion algorithm.

::

    function insert_BST(newAcc, BST)
        hasError <- data_race_detection(newAcc, BST)
        if !hasError then
            interAcc  <- get_intersecting_accesses(newAcc, BST)
            fragAcc   <- fragment_accesses(interAcc, newAcc)
            mergedAcc <- merge_accesses(fragAcc)
            finish_insertion(interAcc, mergedAcc, BST)

Implementation notes:

* ``data_race_detection`` uses the *correct* interval-tree overlap query
  (the augmented search of :class:`IntervalBST`), which is what removes
  the original tool's lower-bound false negatives together with the
  disjointness invariant.
* ``get_intersecting_accesses`` widens the query by one byte on each
  side so that *adjacent* stored accesses are retrieved too: they flow
  through fragmentation untouched and give the merging step (§4.2) the
  chance to coalesce them with the new fragments.  Without this widening
  the Code-2 loop (adjacent one-byte Gets) could never merge.
* ``finish_insertion`` swaps the old nodes for the merged fragments,
  keeping the BST's accesses pairwise disjoint — the invariant the whole
  scheme relies on.
"""

from __future__ import annotations

from collections import Counter
from time import perf_counter_ns
from typing import Callable, List, Optional, Sequence

from .. import obs
from ..bst import IntervalBST
from ..intervals import Interval, MemoryAccess, is_race
from ..intervals.combine import combined_type
from . import base as _base
from .fragmentation import fragment_accesses
from .merging import merge_accesses

__all__ = [
    "data_race_detection",
    "get_intersecting_accesses",
    "finish_insertion",
    "insert_access",
    "InsertOutcome",
]

RacePredicate = Callable[[MemoryAccess, MemoryAccess], bool]


class InsertOutcome:
    """Result of one :func:`insert_access` call.

    ``conflict`` is the stored access that races with the new one (None
    when the insertion succeeded), and ``merged`` the fragments that
    replaced the old nodes (empty on a race — the paper's tool aborts
    before inserting).
    """

    __slots__ = ("conflict", "merged", "removed")

    def __init__(
        self,
        conflict: Optional[MemoryAccess],
        merged: Sequence[MemoryAccess],
        removed: Sequence[MemoryAccess],
    ) -> None:
        self.conflict = conflict
        self.merged = list(merged)
        self.removed = list(removed)

    @property
    def has_race(self) -> bool:
        return self.conflict is not None


def data_race_detection(
    new: MemoryAccess,
    bst: IntervalBST,
    predicate: RacePredicate = is_race,
) -> Optional[MemoryAccess]:
    """Return the first stored access racing with ``new`` (or None).

    The scan is deterministic (address order) so reports are stable.
    """
    for stored in bst.find_overlapping(new.interval):
        if predicate(stored, new):
            return stored
    return None


def get_intersecting_accesses(
    new: MemoryAccess, bst: IntervalBST
) -> List[MemoryAccess]:
    """Stored accesses intersecting *or adjacent to* ``new`` (see module doc)."""
    lo = max(0, new.interval.lo - 1)
    hi = new.interval.hi + 1
    return bst.find_overlapping(Interval(lo, hi))


def finish_insertion(
    inter: Sequence[MemoryAccess],
    merged: Sequence[MemoryAccess],
    bst: IntervalBST,
) -> None:
    """Replace the retrieved old accesses with the merged fragments."""
    for acc in inter:
        removed = bst.remove(acc)
        if not removed:  # pragma: no cover - would indicate tree corruption
            raise RuntimeError(f"access {acc} vanished from the BST")
    for acc in merged:
        bst.insert(acc)


def insert_access(
    new: MemoryAccess,
    bst: IntervalBST,
    *,
    predicate: RacePredicate = is_race,
    merge: bool = True,
) -> InsertOutcome:
    """Run Algorithm 1 for one access; never raises on a race.

    On a race, the BST is left untouched (the real tool aborts with
    MPI_Abort at this point; our harness records the report and lets the
    caller decide).

    Implementation notes (all behaviour-preserving):

    * the race check and the intersection retrieval share one widened
      tree traversal — the check only needs the truly-overlapping subset
      of what the retrieval fetches;
    * when nothing overlaps, fragmentation is the identity, so the new
      access is either coalesced with a same-site adjacent neighbour or
      inserted directly;
    * in the general case only the *delta* between the old nodes and the
      merged fragments touches the tree — fragments that came out
      unchanged stay where they are.
    """
    # Counters stay exact through cached handles (plain int adds); the
    # per-phase timings use the two-clock-read accumulation pattern
    # (Registry.phase_ns) on 1-in-64 sampled calls only — this function
    # runs once per recorded access, and both per-call registry lookups
    # and unconditional clock reads blow the <=5% metrics-on overhead
    # budget (BENCH_obs_overhead.json).  Sampled phase totals are a
    # profile: compare them to each other, not to wall time.
    reg = obs.active()
    enabled = reg.enabled
    timed = False
    if enabled:
        hot = _base._HOT
        if hot is None or hot.reg is not reg:
            hot = _base._bind_hot(reg)
        hot.accesses.value += 1
        t = reg._tick + 1
        reg._tick = t
        timed = not (t & reg.SAMPLE_MASK)
        if timed:
            t0 = perf_counter_ns()
    inter = get_intersecting_accesses(new, bst)
    if timed:
        t1 = perf_counter_ns()
        reg.phase_ns("insert.query", t1 - t0)
    overlapping = False
    for stored in inter:
        if stored.interval.overlaps(new.interval):
            overlapping = True
            if predicate(stored, new):
                if enabled:
                    hot.races.value += 1
                    if timed:
                        reg.phase_ns("insert.race_check",
                                     perf_counter_ns() - t1)
                return InsertOutcome(stored, (), ())
    if timed:
        t2 = perf_counter_ns()
        reg.phase_ns("insert.race_check", t2 - t1)
        t1 = t2

    # no-op fast path: a single stored access already subsumes the new
    # one (covers its range with a dominating-or-identical type and the
    # same provenance) — fragmenting would reproduce it byte for byte
    if len(inter) == 1:
        stored = inter[0]
        if stored.interval.contains_interval(new.interval):
            _t, which = combined_type(stored.type, new.type)
            if which == 1 or stored.same_site(new):
                if enabled:
                    hot.fastpath.value += 1
                return InsertOutcome(None, [stored], ())

    if not overlapping:
        # adjacency only: merging is the single possible simplification
        grown = new
        absorbed: List[MemoryAccess] = []
        if merge:
            for stored in inter:
                if grown.interval.is_adjacent(stored.interval) and stored.same_site(grown):
                    grown = grown.with_interval(grown.interval.union(stored.interval))
                    absorbed.append(stored)
        for stored in absorbed:
            bst.remove(stored)
        bst.insert(grown)
        if enabled:
            if absorbed:
                hot.merges.value += len(absorbed)
            if timed:
                reg.phase_ns("insert.merge", perf_counter_ns() - t1)
        return InsertOutcome(None, [grown], absorbed)

    frags = fragment_accesses(inter, new)
    if timed:
        t2 = perf_counter_ns()
        reg.phase_ns("insert.fragment", t2 - t1)
    merged = merge_accesses(frags) if merge else frags
    if enabled:
        hot.fragments.value += len(frags)
        if len(merged) < len(frags):
            hot.merges.value += len(frags) - len(merged)
        if timed:
            t1 = perf_counter_ns()
            reg.phase_ns("insert.merge", t1 - t2)
    old_c = Counter(inter)
    new_c = Counter(merged)
    removed = list((old_c - new_c).elements())
    added = list((new_c - old_c).elements())
    for acc in removed:
        ok = bst.remove(acc)
        if not ok:  # pragma: no cover - would indicate tree corruption
            raise RuntimeError(f"access {acc} vanished from the BST")
    for acc in added:
        bst.insert(acc)
    if timed:
        reg.phase_ns("insert.apply", perf_counter_ns() - t1)
    return InsertOutcome(None, merged, removed)
