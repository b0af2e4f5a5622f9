"""Flat struct-of-arrays interval store — the detector core's hot path.

Same data structure as :class:`repro.bst.interval_tree.IntervalBST`
(an AVL tree keyed by interval lower bound, augmented with the max
upper bound per subtree), but nodes are *rows across parallel list
columns* addressed by small ints instead of linked ``AVLNode`` objects:

======== =====================================================
column   meaning
======== =====================================================
_key     interval lower bound (the BST key)
_hi      interval upper bound
_left    left child index (-1 = none)
_right   right child index (-1 = none)
_height  AVL height (leaves are 1)
_aug     max interval upper bound in the subtree
_tid     the row's tail id in ``_tails`` (-1 on free slots)
======== =====================================================

A record's *tail* is everything but its bounds, ``rec[2:]`` = (type,
site, origin, seq, flush_gen, accum, excl_epoch) — see
:mod:`repro.intervals.intern`.  A store holds few distinct tails (a
handful of sites times the epoch state), so each is kept once in the
tail table ``_tails`` (id → tail, with ``_tail_ids`` the reverse map)
and a row stores only its id: bounds plus one small int instead of a
9-tuple per node.  Records ``(lo, hi) + tail`` are built only for query
hits and iteration.  Tails whose rows are gone are dropped when the
table would outgrow twice the live rows (:meth:`_add_tail`), so
changing ``flush_gen`` / ``excl_epoch`` values cannot grow it without
bound.

Freed slots go on a free list and are reused LIFO, so a store's column
length tracks its high-water node count, not its insert count.

Every operation counts into the same :class:`~repro.bst.stats.TreeStats`
with the *same accounting* as the object tree — descent comparisons,
rotations, query ``visited`` counts, fan-out buckets — because those
counters are published as ``bst.*`` metrics and captured inside race
forensics bundles: the flat core must keep them byte-identical to the
object core (the differential harness in ``tests/`` pins this).

The detector invariant (stored accesses pairwise disjoint, §4.1) makes
keys unique here; the object tree's tie-break counter — whose fresh tie
is always the maximum, sending equal keys right — therefore has no
observable effect and is not materialized.  Removal still mirrors the
object tree's equal-key two-sided search so the comparison counts stay
identical even on (impossible-by-invariant) duplicate keys.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Tuple

from ..intervals.access import DebugInfo
from ..intervals.intern import ACCUMS, SITES, Rec
from .stats import FANOUT_NBUCKETS, TreeStats

__all__ = ["FLAT_LAYOUT", "FlatIntervalStore"]

#: checkpoint layout tag of one serialized store (inside ``repro-ckpt-v1``)
FLAT_LAYOUT = "repro-flat-bst-v3"

#: a record without its bounds: (type, site, origin, seq, flush_gen,
#: accum, excl_epoch) — ``rec[2:]``
Tail = Tuple[int, int, int, int, int, int, Optional[int]]


def _packed(col: List[int], code: str):
    """An int column as a typed array: bounds as int64 (``"q"``), row
    indices, heights and tail ids as int32 (``"i"``) — a trace's
    access records hold int64 bounds.  (``array`` is imported here, on
    the first checkpoint: a plain analysis never loads it.)
    """
    from array import array

    return array(code, col)


class FlatIntervalStore:
    """Disjoint-interval store over flat columns, API-compatible with
    :class:`~repro.bst.interval_tree.IntervalBST` where the detectors
    need it (``len``, ``stats``, ``clear``, iteration, checkpointing) —
    but trafficking in interned record tuples, not ``MemoryAccess``."""

    __slots__ = ("_key", "_hi", "_left", "_right", "_height", "_aug",
                 "_tid", "_tails", "_tail_ids", "_free", "root", "_size",
                 "_balanced", "stats", "_last", "_last_rec")

    def __init__(self, *, balanced: bool = True) -> None:
        self._key: List[int] = []
        self._hi: List[int] = []
        self._left: List[int] = []
        self._right: List[int] = []
        self._height: List[int] = []
        self._aug: List[int] = []
        self._tid: List[int] = []
        self._tails: List[Tail] = []
        self._tail_ids: Dict[Tail, int] = {}
        self._free: List[int] = []
        self.root = -1
        self._size = 0
        self._balanced = balanced
        self.stats = TreeStats()
        self._forget_last()

    # -- size / iteration ------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def _rows(self) -> Iterator[int]:
        """Live rows in key order (in-order traversal)."""
        left = self._left
        right = self._right
        stack: List[int] = []
        i = self.root
        while stack or i >= 0:
            while i >= 0:
                stack.append(i)
                i = left[i]
            i = stack.pop()
            yield i
            i = right[i]

    def __iter__(self) -> Iterator[Rec]:
        """In-order traversal of records (ascending key)."""
        karr = self._key
        hiarr = self._hi
        tid = self._tid
        tails = self._tails
        for i in self._rows():
            yield (karr[i], hiarr[i]) + tails[tid[i]]

    def height(self) -> int:
        return self._height[self.root] if self.root >= 0 else 0

    def clear(self) -> None:
        """Drop all rows; stats survive (same contract as the object tree)."""
        self._key.clear()
        self._hi.clear()
        self._left.clear()
        self._right.clear()
        self._height.clear()
        self._aug.clear()
        self._tid.clear()
        self._tails.clear()
        self._tail_ids.clear()
        self._free.clear()
        self.root = -1
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
        karr = self._key
        hiarr = self._hi
        tid = self._tid
        return [(karr[i], hiarr[i]) + tails[tid[i]]
                for i in self._rows() if kept[tid[i]]]

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
        tid = self._tid
        tails = self._tails
        live = sorted(set(tid) - {-1})
        remap = {old: new for new, old in enumerate(live)}
        remap[-1] = -1
        tid[:] = [remap[t] for t in tid]
        tails[:] = [tails[t] for t in live]
        self._tail_ids = {tail: t for t, tail in enumerate(tails)}

    def _row_is(self, i: int, rec: Rec) -> bool:
        """Row ``i`` stores exactly ``rec`` (its key already matched)."""
        return (i == self._last and rec is self._last_rec) or (
            self._hi[i] == rec[1] and self._tails[self._tid[i]] == rec[2:])

    def _forget_last(self) -> None:
        """Drop the memo of the last insert (its row was freed).

        ``_last_rec`` is the record the last :meth:`insert` stored, in
        row ``_last``.  A query hitting that row returns that tuple
        instead of building one, and removing that very tuple needs no
        tail compare: the common step of extending the record just
        stored (query, remove, re-insert) builds no record at all.
        """
        self._last = -1
        self._last_rec = None

    # -- maintenance -----------------------------------------------------------

    def _refresh(self, i: int) -> None:
        left = self._left
        right = self._right
        height = self._height
        l = left[i]
        r = right[i]
        lh = height[l] if l >= 0 else 0
        rh = height[r] if r >= 0 else 0
        height[i] = (lh if lh > rh else rh) + 1
        aug = self._aug
        a = self._hi[i]
        if l >= 0 and aug[l] > a:
            a = aug[l]
        if r >= 0 and aug[r] > a:
            a = aug[r]
        aug[i] = a

    def _rotate_right(self, y: int) -> int:
        left = self._left
        x = left[y]
        left[y] = self._right[x]
        self._right[x] = y
        self._refresh(y)
        self._refresh(x)
        self.stats.rotations += 1
        return x

    def _rotate_left(self, x: int) -> int:
        right = self._right
        y = right[x]
        right[x] = self._left[y]
        self._left[y] = x
        self._refresh(x)
        self._refresh(y)
        self.stats.rotations += 1
        return y

    def _rebalance(self, i: int) -> int:
        left = self._left
        right = self._right
        height = self._height
        l = left[i]
        r = right[i]
        lh = height[l] if l >= 0 else 0
        rh = height[r] if r >= 0 else 0
        height[i] = (lh if lh > rh else rh) + 1
        aug = self._aug
        a = self._hi[i]
        if l >= 0 and aug[l] > a:
            a = aug[l]
        if r >= 0 and aug[r] > a:
            a = aug[r]
        aug[i] = a
        if not self._balanced:
            return i
        balance = lh - rh
        if balance > 1:
            ll = left[l]
            lr = right[l]
            if (height[ll] if ll >= 0 else 0) < (
                    height[lr] if lr >= 0 else 0):
                left[i] = self._rotate_left(l)
            return self._rotate_right(i)
        if balance < -1:
            rr = right[r]
            rl = left[r]
            if (height[rr] if rr >= 0 else 0) < (
                    height[rl] if rl >= 0 else 0):
                right[i] = self._rotate_right(r)
            return self._rotate_left(i)
        return i

    # -- mutation --------------------------------------------------------------

    def insert(self, rec: Rec) -> None:
        """Insert one record (iterative descent + bottom-up rebalance).

        Counting parity with the object tree: one comparison per
        existing node on the descent path; a fresh node's tie-break is
        always the maximum there, so equal keys descend right and the
        comparison outcome depends on the key alone.  Alloc, refresh,
        and the balance check are inlined — this is the detector's
        single hottest function.
        """
        key = rec[0]
        hi = rec[1]
        tail = rec[2:]
        tix = self._tail_ids.get(tail)
        if tix is None:
            tix = self._add_tail(tail)
        karr = self._key
        hiarr = self._hi
        left = self._left
        right = self._right
        height = self._height
        aug = self._aug
        free = self._free
        if free:
            idx = free.pop()
            karr[idx] = key
            hiarr[idx] = hi
            left[idx] = -1
            right[idx] = -1
            height[idx] = 1
            aug[idx] = hi
            self._tid[idx] = tix
        else:
            idx = len(karr)
            karr.append(key)
            hiarr.append(hi)
            left.append(-1)
            right.append(-1)
            height.append(1)
            aug.append(hi)
            self._tid.append(tix)
        self._last = idx
        self._last_rec = rec
        stats = self.stats
        i = self.root
        if i < 0:
            self.root = idx
        else:
            path: List[int] = []
            # descent and attach fused: the final comparison's direction
            # is remembered, not recomputed (counts are len(path) either
            # way — one comparison per visited node).  Every node on the
            # path gains exactly the new record, so its max-hi becomes
            # max(old, hi) here, whatever the rebalance below does: a
            # rotation rebuilds the rotated nodes' max-hi from their
            # children, and keeps their subtree's record set.
            while True:
                path.append(i)
                if hi > aug[i]:
                    aug[i] = hi
                if key < karr[i]:
                    j = left[i]
                    if j < 0:
                        left[i] = idx
                        break
                else:
                    j = right[i]
                    if j < 0:
                        right[i] = idx
                        break
                i = j
            stats.comparisons += len(path)
            # Bottom-up height refresh + rebalance of the descent path,
            # re-attaching any rotated subtree root to its parent (what
            # the recursive object implementation does via returns).
            # Max-hi is already final (above), so once a node's height
            # comes out unchanged nothing above it can change either —
            # one insert needs at most one (single or double) rotation,
            # and past it every ancestor refresh is a no-op — so the
            # walk stops early.  Comparison/rotation *counts* are
            # untouched by the early exit: the object core's extra
            # _rebalance calls up the path never count anything.
            balanced = self._balanced
            for j in range(len(path) - 1, -1, -1):
                node = path[j]
                l = left[node]
                r = right[node]
                lh = height[l] if l >= 0 else 0
                rh = height[r] if r >= 0 else 0
                bal = lh - rh if balanced else 0
                if bal > 1:
                    oh = height[node]
                    ll = left[l]
                    lr = right[l]
                    if (height[ll] if ll >= 0 else 0) < (
                            height[lr] if lr >= 0 else 0):
                        # left-right: pre-rotate the left child left
                        # (inlined _rotate_left(l); x = l, y = lr)
                        t = left[lr]
                        right[l] = t
                        left[lr] = l
                        th = height[t] if t >= 0 else 0
                        llh = height[ll] if ll >= 0 else 0
                        height[l] = (llh if llh > th else th) + 1
                        a2 = hiarr[l]
                        if ll >= 0 and aug[ll] > a2:
                            a2 = aug[ll]
                        if t >= 0 and aug[t] > a2:
                            a2 = aug[t]
                        aug[l] = a2
                        yr = right[lr]
                        yrh = height[yr] if yr >= 0 else 0
                        hl2 = height[l]
                        height[lr] = (hl2 if hl2 > yrh else yrh) + 1
                        a3 = hiarr[lr]
                        if a2 > a3:
                            a3 = a2
                        if yr >= 0 and aug[yr] > a3:
                            a3 = aug[yr]
                        aug[lr] = a3
                        stats.rotations += 1
                        left[node] = lr
                        l = lr
                    # inlined _rotate_right(node); x = l, y = node
                    t = right[l]
                    left[node] = t
                    right[l] = node
                    th = height[t] if t >= 0 else 0
                    rh2 = height[r] if r >= 0 else 0
                    height[node] = (th if th > rh2 else rh2) + 1
                    a2 = hiarr[node]
                    if t >= 0 and aug[t] > a2:
                        a2 = aug[t]
                    if r >= 0 and aug[r] > a2:
                        a2 = aug[r]
                    aug[node] = a2
                    xl = left[l]
                    xlh = height[xl] if xl >= 0 else 0
                    hn = height[node]
                    height[l] = (xlh if xlh > hn else hn) + 1
                    a3 = hiarr[l]
                    if xl >= 0 and aug[xl] > a3:
                        a3 = aug[xl]
                    if a2 > a3:
                        a3 = a2
                    aug[l] = a3
                    stats.rotations += 1
                    sub = l
                elif bal < -1:
                    oh = height[node]
                    rr = right[r]
                    rl = left[r]
                    if (height[rr] if rr >= 0 else 0) < (
                            height[rl] if rl >= 0 else 0):
                        # right-left: pre-rotate the right child right
                        # (inlined _rotate_right(r); y = r, x = rl)
                        t = right[rl]
                        left[r] = t
                        right[rl] = r
                        th = height[t] if t >= 0 else 0
                        rrh = height[rr] if rr >= 0 else 0
                        height[r] = (th if th > rrh else rrh) + 1
                        a2 = hiarr[r]
                        if t >= 0 and aug[t] > a2:
                            a2 = aug[t]
                        if rr >= 0 and aug[rr] > a2:
                            a2 = aug[rr]
                        aug[r] = a2
                        xl = left[rl]
                        xlh = height[xl] if xl >= 0 else 0
                        hr2 = height[r]
                        height[rl] = (xlh if xlh > hr2 else hr2) + 1
                        a3 = hiarr[rl]
                        if xl >= 0 and aug[xl] > a3:
                            a3 = aug[xl]
                        if a2 > a3:
                            a3 = a2
                        aug[rl] = a3
                        stats.rotations += 1
                        right[node] = rl
                        r = rl
                    # inlined _rotate_left(node); x = node, y = r
                    t = left[r]
                    right[node] = t
                    left[r] = node
                    lh2 = height[l] if l >= 0 else 0
                    th = height[t] if t >= 0 else 0
                    height[node] = (lh2 if lh2 > th else th) + 1
                    a2 = hiarr[node]
                    if l >= 0 and aug[l] > a2:
                        a2 = aug[l]
                    if t >= 0 and aug[t] > a2:
                        a2 = aug[t]
                    aug[node] = a2
                    yr = right[r]
                    yrh = height[yr] if yr >= 0 else 0
                    hn = height[node]
                    height[r] = (hn if hn > yrh else yrh) + 1
                    a3 = hiarr[r]
                    if a2 > a3:
                        a3 = a2
                    if yr >= 0 and aug[yr] > a3:
                        a3 = aug[yr]
                    aug[r] = a3
                    stats.rotations += 1
                    sub = r
                else:
                    nh = (lh if lh > rh else rh) + 1
                    if nh == height[node]:
                        break
                    height[node] = nh
                    continue
                if j:
                    p = path[j - 1]
                    if left[p] == node:
                        left[p] = sub
                    else:
                        right[p] = sub
                else:
                    self.root = sub
                if height[sub] == oh:
                    break
        self._size += 1
        stats.inserts += 1
        if self._size > stats.max_size:
            stats.max_size = self._size

    def remove(self, rec: Rec) -> bool:
        """Remove one stored record equal to ``rec``; False if absent.

        Iterative descent with an explicit ancestor stack, then
        bottom-up maintenance with the same stats accounting and early
        break as :meth:`insert`: one comparison per visited node,
        rotations counted only when they happen, and the climb stops as
        soon as a refresh leaves both height and augmentation unchanged
        (everything above is then provably a no-op in the recursive
        formulation too).
        """
        i = self.root
        if i < 0:
            return False
        key = rec[0]
        karr = self._key
        hiarr = self._hi
        left = self._left
        right = self._right
        height = self._height
        aug = self._aug
        tid = self._tid
        stats = self.stats
        path: List[int] = []
        visited = 0
        while i >= 0:
            visited += 1
            k = karr[i]
            if key < k:
                path.append(i)
                i = left[i]
            elif key > k:
                path.append(i)
                i = right[i]
            elif (i == self._last and rec is self._last_rec) or (
                    hiarr[i] == rec[1] and self._tails[tid[i]] == rec[2:]):
                break
            else:
                # equal keys may sit on either side because of
                # tie-breaks; rare — the recursive two-sided search
                # keeps the exact per-node accounting
                stats.comparisons += visited
                return self._remove_equal(path, i, key, rec)
        stats.comparisons += visited
        if i < 0:
            return False
        # detach row i (successor splice when it has two children)
        l = left[i]
        r = right[i]
        tid[i] = -1
        self._free.append(i)
        if i == self._last:
            self._last = -1
            self._last_rec = None
        if l < 0:
            sub = r
        elif r < 0:
            sub = l
        else:
            # detach the right subtree's min; the recursive
            # _detach_min rebalances every left-spine node on the way
            # up — rotations counted, no comparisons — reproduced here
            m = r
            if left[m] < 0:
                new_r = right[m]
            else:
                spine = [m]
                m = left[m]
                while left[m] >= 0:
                    spine.append(m)
                    m = left[m]
                left[spine[-1]] = right[m]
                sub2 = self._rebalance(spine[-1])
                for j in range(len(spine) - 2, -1, -1):
                    p = spine[j]
                    left[p] = sub2
                    sub2 = self._rebalance(p)
                new_r = sub2
            left[m] = l
            right[m] = new_r
            sub = self._rebalance(m)
        if not path:
            self.root = sub
        else:
            p = path[-1]
            if left[p] == i:
                left[p] = sub
            else:
                right[p] = sub
            balanced = self._balanced
            for j in range(len(path) - 1, -1, -1):
                node = path[j]
                l2 = left[node]
                r2 = right[node]
                lh = height[l2] if l2 >= 0 else 0
                rh = height[r2] if r2 >= 0 else 0
                oh = height[node]
                oa = aug[node]
                if balanced and (lh - rh > 1 or rh - lh > 1):
                    sub = self._rebalance(node)
                    if j:
                        p = path[j - 1]
                        if left[p] == node:
                            left[p] = sub
                        else:
                            right[p] = sub
                    else:
                        self.root = sub
                    if height[sub] == oh and aug[sub] == oa:
                        break
                else:
                    nh = (lh if lh > rh else rh) + 1
                    height[node] = nh
                    a = hiarr[node]
                    if l2 >= 0 and aug[l2] > a:
                        a = aug[l2]
                    if r2 >= 0 and aug[r2] > a:
                        a = aug[r2]
                    aug[node] = a
                    if nh == oh and a == oa:
                        break
        self._size -= 1
        stats.removals += 1
        return True

    def _remove_equal(self, path: List[int], i: int, key: int,
                      rec: Rec) -> bool:
        """Tie-broken equal-key removal below ``i`` (recursive slow path)."""
        left = self._left
        right = self._right
        removed, sub = self._remove(left[i], key, rec)
        left[i] = sub
        if not removed:
            removed, sub = self._remove(right[i], key, rec)
            right[i] = sub
        if not removed:
            return False
        node = i
        sub = self._rebalance(i)
        for j in range(len(path) - 1, -1, -1):
            p = path[j]
            if left[p] == node:
                left[p] = sub
            else:
                right[p] = sub
            node = p
            sub = self._rebalance(p)
        self.root = sub
        self._size -= 1
        self.stats.removals += 1
        return True

    def _remove(self, i: int, key: int, rec: Rec) -> tuple:
        if i < 0:
            return False, -1
        self.stats.comparisons += 1
        k = self._key[i]
        if key < k:
            removed, sub = self._remove(self._left[i], key, rec)
            self._left[i] = sub
        elif key > k:
            removed, sub = self._remove(self._right[i], key, rec)
            self._right[i] = sub
        elif self._row_is(i, rec):
            return True, self._pop_node(i)
        else:
            # equal keys may sit on either side because of tie-breaks
            removed, sub = self._remove(self._left[i], key, rec)
            self._left[i] = sub
            if not removed:
                removed, sub = self._remove(self._right[i], key, rec)
                self._right[i] = sub
        if not removed:
            return False, i
        return True, self._rebalance(i)

    def _pop_node(self, i: int) -> int:
        """Detach row ``i``, returning the subtree index replacing it."""
        l = self._left[i]
        r = self._right[i]
        self._tid[i] = -1
        self._free.append(i)
        if i == self._last:
            self._forget_last()
        if l < 0:
            return r
        if r < 0:
            return l
        succ, new_right = self._detach_min(r)
        self._left[succ] = l
        self._right[succ] = new_right
        return self._rebalance(succ)

    def _detach_min(self, i: int) -> tuple:
        l = self._left[i]
        if l < 0:
            return i, self._right[i]
        mn, sub = self._detach_min(l)
        self._left[i] = sub
        return mn, self._rebalance(i)

    # -- queries ---------------------------------------------------------------

    def find_overlapping(self, lo: int, hi: int) -> List[Rec]:
        """All stored records overlapping ``[lo, hi)``, in key order.

        Same traversal, pruning, and stats accounting as
        :meth:`IntervalBST.find_overlapping` — ``visited`` nodes count
        as comparisons, every query lands in the fan-out buckets.
        """
        out: List[Rec] = []
        visited = 0
        i = self.root
        if i >= 0:
            karr = self._key
            hiarr = self._hi
            aug = self._aug
            left = self._left
            right = self._right
            tid = self._tid
            tails = self._tails
            # prune at push time: a child with aug <= lo would only be
            # popped and skipped, so never stack it — the visited set
            # (and thus the comparison count) is identical either way
            if aug[i] > lo:
                # (list methods are called in place: CPython 3.11+
                # specializes those calls, not calls via bound methods)
                stack = [i]
                while stack:
                    i = stack.pop()
                    visited += 1
                    l = left[i]
                    if l >= 0 and aug[l] > lo:
                        stack.append(l)
                    if karr[i] < hi:
                        if lo < hiarr[i]:
                            out.append(
                                self._last_rec if i == self._last else
                                (karr[i], hiarr[i]) + tails[tid[i]])
                        r = right[i]
                        if r >= 0 and aug[r] > lo:
                            stack.append(r)
        stats = self.stats
        stats.comparisons += visited
        # note_query, inlined (this is the hottest query in the tool)
        k = len(out)
        stats.queries += 1
        stats.query_hits += k
        if k > stats.max_fanout:
            stats.max_fanout = k
        b = k.bit_length() if k else 0
        stats.fanout[b if b < FANOUT_NBUCKETS else FANOUT_NBUCKETS - 1] += 1
        # records sort lexicographically: unique keys mean element 0
        # alone orders them — same (lo, hi) order as the object tree
        if k > 1:
            out.sort()
        return out

    # -- checkpointing ---------------------------------------------------------

    def save_state(self) -> dict:
        """Portable ``repro-ckpt-v1`` encoding (layout ``repro-flat-bst-v3``).

        The int columns travel as typed arrays, the tail table as is.
        Interned ids are process-local, so the id → value tables of the
        sites (filename, line) and accum ops go along, collected from
        the few tails rather than from every row; a store restored in
        another process re-interns those values and remaps its tails.
        Structure (indices, free list, root, tail ids) round-trips
        exactly, so the restored store's future behavior — including
        slot reuse order and every stats delta — is identical.
        """
        tails = list(self._tails)
        site_val = SITES.value
        accum_val = ACCUMS.value
        return {
            "layout": FLAT_LAYOUT,
            "balanced": self._balanced,
            "root": self.root,
            "size": self._size,
            "free": _packed(self._free, "i"),
            "key": _packed(self._key, "q"),
            "hi": _packed(self._hi, "q"),
            "left": _packed(self._left, "i"),
            "right": _packed(self._right, "i"),
            "height": _packed(self._height, "i"),
            "aug": _packed(self._aug, "q"),
            "tid": _packed(self._tid, "i"),
            "tails": tails,
            "sites": {t[1]: (site_val(t[1]).filename, site_val(t[1]).line)
                      for t in tails},
            "accums": {t[5]: accum_val(t[5]) for t in tails},
            "stats": self.stats.to_dict(),
        }

    def load_state(self, state: dict) -> None:
        """Rebuild from :meth:`save_state` output (re-interning ids).

        Only layout ``repro-flat-bst-v3`` loads; an older snapshot
        raises :class:`ValueError`, which a resumed run reports as an
        unusable checkpoint.
        """
        layout = state.get("layout")
        if layout != FLAT_LAYOUT:
            raise ValueError(
                f"flat store cannot load layout {layout!r} "
                f"(expected {FLAT_LAYOUT!r})")
        self._balanced = bool(state["balanced"])
        self.root = state["root"]
        self._size = state["size"]
        self._free = list(state["free"])
        self._key = list(state["key"])
        self._hi = list(state["hi"])
        self._left = list(state["left"])
        self._right = list(state["right"])
        self._height = list(state["height"])
        self._aug = list(state["aug"])
        site_id = SITES.id_of
        accum_id = ACCUMS.id_of
        sites = {i: site_id(DebugInfo(*v)) for i, v in state["sites"].items()}
        accums = {i: accum_id(v) for i, v in state["accums"].items()}
        tails = list(state["tails"])
        if any(i != j for i, j in sites.items()) or any(
                i != j for i, j in accums.items()):
            # another process interned in another order: remap the
            # tails — the rows keep their tail ids
            tails = [t[:1] + (sites[t[1]],) + t[2:5] + (accums[t[5]], t[6])
                     for t in tails]
        self._tid = list(state["tid"])
        self._tails = tails
        self._tail_ids = {t: i for i, t in enumerate(tails)}
        self.stats = TreeStats.from_dict(state["stats"])
        self._forget_last()

    @classmethod
    def from_state(cls, state: dict) -> "FlatIntervalStore":
        store = cls(balanced=bool(state["balanced"]))
        store.load_state(state)
        return store

    # -- validation (tests and hypothesis) -------------------------------------

    def check_invariants(self) -> None:
        """Raise AssertionError on any structural violation."""
        seen = set()

        def walk(i: int):
            if i < 0:
                return 0, None, None, 0
            assert i not in seen, f"row {i} reachable twice"
            seen.add(i)
            t = self._tid[i]
            assert 0 <= t < len(self._tails), f"free row {i} still linked"
            lh, lmin, lmax, laug = walk(self._left[i])
            rh, rmin, rmax, raug = walk(self._right[i])
            k = self._key[i]
            if lmax is not None:
                assert lmax <= k, f"left child {lmax} > node {k}"
            if rmin is not None:
                assert rmin >= k, f"right child {rmin} < node {k}"
            h = 1 + max(lh, rh)
            assert self._height[i] == h, f"stale height at row {i}"
            if self._balanced:
                assert abs(lh - rh) <= 1, f"unbalanced at row {i}"
            expect_aug = max(self._hi[i], laug, raug)
            assert self._aug[i] == expect_aug, f"stale max-hi at row {i}"
            return (h, lmin if lmin is not None else k,
                    rmax if rmax is not None else k, expect_aug)

        walk(self.root)
        assert self._size == len(seen), "size disagrees with reachable rows"
        free = set(self._free)
        assert len(free) == len(self._free), "duplicate free-list entries"
        assert not (free & seen), "free row still reachable"
        assert len(seen) + len(free) == len(self._key), (
            "rows neither reachable nor free")
        assert all(self._tid[i] == -1 for i in free), "free row keeps a tail"
        tails = self._tails
        assert self._tail_ids == {t: i for i, t in enumerate(tails)}, (
            "tail table and its index disagree")
        last = self._last
        assert last < 0 or (last in seen and self._last_rec == (
            self._key[last], self._hi[last]) + tails[self._tid[last]]), (
            "the last-insert memo disagrees with its row")
        ordered = list(self)
        for a, b in zip(ordered, ordered[1:]):
            assert a[1] <= b[0], f"stored records overlap: {a} vs {b}"
