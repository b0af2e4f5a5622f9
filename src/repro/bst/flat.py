"""Sorted typed-array blocks of disjoint intervals — the detector core's store.

Algorithm 1's fragmentation (§4.1) keeps the records of a store
pairwise disjoint, and every stored interval is non-empty: a trace
access is checked for ``0 <= lo < hi`` where it is decoded
(:func:`repro.pipeline.decode.decode` and
:meth:`~repro.core.flatcore.FlatDetector.ingest_wire`), and a live
access is an :class:`~repro.intervals.Interval`, which refuses empty
ones.  Disjoint non-empty intervals sorted by lower bound have sorted
upper bounds too, so lower bounds are unique keys and the records
overlapping ``[lo, hi)`` are one contiguous run: from the first row
whose upper bound exceeds ``lo`` up to the last row whose lower bound
is below ``hi``.  Two bisects find it; no tree, rotation or max-hi
augmentation is needed (the node-linked AVL tree stays with the
object core, the RMA-Analyzer baseline and the balancing ablation,
where it stands for the paper's BST).

The rows live in sorted *blocks* of at most :attr:`_BLOCK` rows, the
layout of ``sortedcontainers``: per block an ``array('q')`` of lower
bounds, one of upper bounds and an ``array('i')`` of tail ids, and
over the blocks two plain lists, each block's first lower bound
(``_mins``) and last upper bound (``_maxs``).  Insert, remove and
query bisect the index list, then one block, both in C; an insert or
remove moves at most one block's rows.  A block that outgrows
:attr:`_BLOCK` rows splits in half and an emptied block is dropped, so
each split is paid for by at least ``_BLOCK // 2`` inserts.

A record's *tail* is everything but its bounds, ``rec[2:]`` = (type,
site, origin, seq, flush_gen, accum, excl_epoch) — see
:mod:`repro.intervals.intern`.  A store holds few distinct tails (a
handful of sites times the epoch state), so each is kept once in the
tail table ``_tails`` (id → tail, with ``_tail_ids`` the reverse map)
and a row stores only its id.  Records ``(lo, hi) + tail`` are built
only for query hits and iteration.  Tails whose rows are gone are
dropped when the table would outgrow twice the live rows
(:meth:`_add_tail`), so changing ``flush_gen`` / ``excl_epoch`` values
cannot grow it without bound.

Counting: inserts, removals, queries, query hits, fan-out buckets and
the high-water row count are what every store counts alike (the
object tree included), and Table 4 reads the row counts.
``comparisons`` is a bisect-probe charge: each lookup (an insert's, a
remove's, a query's) adds ``len(store).bit_length()``, the probes of
one binary search over the store's rows.  It depends on the store's
size alone, never on where the blocks split, so every path that
applies the same operations counts the same.  ``rotations`` stays 0.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from ..intervals.intern import Rec
from .stats import FANOUT_NBUCKETS, TreeStats

__all__ = ["FLAT_LAYOUT", "FlatIntervalStore"]

#: checkpoint layout tag of one serialized store (inside ``repro-ckpt-v1``)
FLAT_LAYOUT = "repro-flat-blocks-v1"

#: a record without its bounds: (type, site, origin, seq, flush_gen,
#: accum, excl_epoch) — ``rec[2:]``
Tail = Tuple[int, int, int, int, int, int, Optional[int]]


class FlatIntervalStore:
    """Disjoint-interval store over sorted typed-array blocks (see the
    module docstring), API-compatible with
    :class:`~repro.bst.interval_tree.IntervalBST` where the detectors
    need it (``len``, ``stats``, ``clear``, iteration, checkpointing) —
    but trafficking in interned record tuples, not ``MemoryAccess``."""

    #: rows per block before it splits (tests shrink it in a subclass)
    _BLOCK = 2048

    __slots__ = ("_los", "_his", "_tids", "_mins", "_maxs", "_tails",
                 "_tail_ids", "_size", "stats", "_last", "_last_rec")

    def __init__(self) -> None:
        self._los: List[array] = []
        self._his: List[array] = []
        self._tids: List[array] = []
        self._mins: List[int] = []
        self._maxs: List[int] = []
        self._tails: List[Tail] = []
        self._tail_ids: Dict[Tail, int] = {}
        self._size = 0
        self.stats = TreeStats()
        self._forget_last()

    # -- size / iteration ------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def __iter__(self) -> Iterator[Rec]:
        """Records in key order."""
        tails = self._tails
        for los, his, tids in zip(self._los, self._his, self._tids):
            for k in range(len(los)):
                yield (los[k], his[k]) + tails[tids[k]]

    def clear(self) -> None:
        """Drop all rows; stats survive (same contract as the object tree)."""
        self._los.clear()
        self._his.clear()
        self._tids.clear()
        self._mins.clear()
        self._maxs.clear()
        self._tails.clear()
        self._tail_ids.clear()
        self._size = 0
        self._forget_last()

    def snapshot(self) -> List[Rec]:
        """In-order copy of the stored records (tests, reports)."""
        return list(self)

    def select(self, keep: Callable[[Tail], bool]) -> List[Rec]:
        """In-order records whose tail passes ``keep``.

        ``keep`` runs once per tail in the table, not once per row, and
        only the kept rows are built into records — a barrier that
        completes every stored access walks no rows at all.
        """
        tails = self._tails
        kept = [keep(t) for t in tails]
        if not any(kept):
            return []
        return [(los[k], his[k]) + tails[tids[k]]
                for los, his, tids in zip(self._los, self._his, self._tids)
                for k in range(len(los)) if kept[tids[k]]]

    # -- tail table ------------------------------------------------------------

    def _add_tail(self, tail: Tail) -> int:
        """Give a tail not in the table an id.

        A table that already holds ``2 * live rows + 8`` tails first
        drops the tails no live row uses (:meth:`_compact_tails`): the
        table never outgrows the live rows by more than that, and a
        compaction's O(rows) walk is paid for by the ``live rows + 8``
        new tails it takes to trigger the next one.
        """
        tails = self._tails
        if len(tails) >= 2 * self._size + 8:
            self._compact_tails()
        t = len(tails)
        tails.append(tail)
        self._tail_ids[tail] = t
        return t

    def _compact_tails(self) -> None:
        """Drop unused tails; live ones keep their relative id order."""
        tails = self._tails
        live = sorted(set().union(*self._tids))
        remap = {old: new for new, old in enumerate(live)}
        self._tids = [array("i", [remap[t] for t in tids])
                      for tids in self._tids]
        tails[:] = [tails[t] for t in live]
        self._tail_ids = {tail: t for t, tail in enumerate(tails)}

    def _forget_last(self) -> None:
        """Drop the memo of the last insert (its row was removed).

        ``_last_rec`` is the record the last :meth:`insert` stored, and
        ``_last`` its key (-1: none).  A query hitting that row returns
        that tuple instead of building one, and removing that very
        tuple needs no tail compare: the common step of extending the
        record just stored (query, remove, re-insert) builds no record
        at all.
        """
        self._last = -1
        self._last_rec = None

    # -- mutation --------------------------------------------------------------

    def insert(self, rec: Rec) -> None:
        """Insert one record, disjoint from every stored one."""
        lo = rec[0]
        tail = rec[2:]
        tix = self._tail_ids.get(tail)
        if tix is None:
            tix = self._add_tail(tail)
        n = self._size
        stats = self.stats
        stats.comparisons += n.bit_length()
        mins = self._mins
        if n:
            b = bisect_right(mins, lo) - 1
            if b < 0:
                b = 0
            los = self._los[b]
            i = bisect_left(los, lo)
            los.insert(i, lo)
            self._his[b].insert(i, rec[1])
            self._tids[b].insert(i, tix)
            if not i:
                mins[b] = lo
            if i == len(los) - 1:
                self._maxs[b] = rec[1]
            if len(los) > self._BLOCK:
                self._split(b)
        else:
            self._los.append(array("q", (lo,)))
            self._his.append(array("q", (rec[1],)))
            self._tids.append(array("i", (tix,)))
            mins.append(lo)
            self._maxs.append(rec[1])
        self._last = lo
        self._last_rec = rec
        n += 1
        self._size = n
        stats.inserts += 1
        if n > stats.max_size:
            stats.max_size = n

    def _split(self, b: int) -> None:
        """Halve block ``b``: its upper half becomes block ``b + 1``."""
        half = len(self._los[b]) >> 1
        for blocks in (self._los, self._his, self._tids):
            block = blocks[b]
            blocks.insert(b + 1, block[half:])
            del block[half:]
        self._mins.insert(b + 1, self._los[b + 1][0])
        self._maxs.insert(b + 1, self._maxs[b])
        self._maxs[b] = self._his[b][-1]

    def remove(self, rec: Rec) -> bool:
        """Remove the stored record equal to ``rec``; False if absent."""
        self.stats.comparisons += self._size.bit_length()
        lo = rec[0]
        b = bisect_right(self._mins, lo) - 1
        if b < 0:
            return False
        los = self._los[b]
        i = bisect_left(los, lo)
        if i == len(los) or los[i] != lo:
            return False
        his = self._his[b]
        tids = self._tids[b]
        if rec is not self._last_rec and (
                his[i] != rec[1] or self._tails[tids[i]] != rec[2:]):
            return False
        if lo == self._last:
            self._forget_last()
        del los[i]
        del his[i]
        del tids[i]
        if not los:
            for blocks in (self._los, self._his, self._tids, self._mins,
                           self._maxs):
                del blocks[b]
        else:
            if not i:
                self._mins[b] = los[0]
            if i == len(los):
                self._maxs[b] = his[-1]
        self._size -= 1
        self.stats.removals += 1
        return True

    # -- queries ---------------------------------------------------------------

    def find_overlapping(self, lo: int, hi: int) -> List[Rec]:
        """All stored records overlapping ``[lo, hi)``, in key order.

        The run starts at the first row whose upper bound exceeds
        ``lo`` (a bisect of the blocks' last upper bounds, then of one
        block's upper bounds) and ends before the first row whose lower
        bound reaches ``hi`` (:meth:`_run`; when the next row's lower
        bound already does, the run is that one row).  Every query
        lands in the fan-out buckets.
        """
        stats = self.stats
        stats.comparisons += self._size.bit_length()
        maxs = self._maxs
        b = bisect_right(maxs, lo)
        if b == len(maxs):
            out = []
        else:
            los = self._los[b]
            his = self._his[b]
            i = bisect_right(his, lo)
            key = los[i]
            if key >= hi:
                out = []
            elif (los[i + 1] >= hi if i + 1 < len(los) else
                  b + 1 == len(maxs) or self._mins[b + 1] >= hi):
                out = [self._last_rec if key == self._last else
                       (key, his[i]) + self._tails[self._tids[b][i]]]
            else:
                out = self._run(b, i, hi)
        # note_query, inlined (this is the hottest query in the tool)
        k = len(out)
        stats.queries += 1
        stats.query_hits += k
        if k > stats.max_fanout:
            stats.max_fanout = k
        b = k.bit_length() if k else 0
        stats.fanout[b if b < FANOUT_NBUCKETS else FANOUT_NBUCKETS - 1] += 1
        return out

    def _run(self, b: int, i: int, hi: int) -> List[Rec]:
        """Records of the rows from row ``i`` of block ``b`` on whose
        lower bound is below ``hi`` (a bisect of each block reached)."""
        out: List[Rec] = []
        mins = self._mins
        tails = self._tails
        last = self._last
        last_rec = self._last_rec
        while True:
            los = self._los[b]
            his = self._his[b]
            tids = self._tids[b]
            j = bisect_left(los, hi, i)
            out.extend(last_rec if los[k] == last else
                       (los[k], his[k]) + tails[tids[k]]
                       for k in range(i, j))
            b += 1
            if j < len(los) or b == len(mins) or mins[b] >= hi:
                return out
            i = 0

    # -- checkpointing and validation (:mod:`repro.bst.flatstate`) -------------

    def save_state(self) -> dict:
        """Portable ``repro-ckpt-v1`` encoding (layout ``repro-flat-blocks-v1``)."""
        from .flatstate import save_state

        return save_state(self)

    def load_state(self, state: dict) -> None:
        """Rebuild from :meth:`save_state` output (re-interning ids)."""
        from .flatstate import load_state

        load_state(self, state)

    @classmethod
    def from_state(cls, state: dict) -> "FlatIntervalStore":
        store = cls()
        store.load_state(state)
        return store

    def check_invariants(self) -> None:
        """Raise AssertionError on any structural violation."""
        from .flatstate import check_invariants

        check_invariants(self)
