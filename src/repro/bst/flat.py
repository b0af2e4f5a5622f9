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
_rec     the interned access record tuple (see
         :mod:`repro.intervals.intern`), ``None`` on free slots
======== =====================================================

Freed slots go on a free list and are reused LIFO, so a store's column
length tracks its high-water node count, not its insert count.

Every operation counts into the same :class:`~repro.bst.avl.TreeStats`
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

from typing import Iterator, List, Optional

from ..intervals.access import DebugInfo
from ..intervals.intern import ACCUMS, SITES, Rec
from .avl import FANOUT_NBUCKETS, TreeStats

__all__ = ["FLAT_LAYOUT", "FlatIntervalStore"]

#: checkpoint layout tag of one serialized store (inside ``repro-ckpt-v1``)
FLAT_LAYOUT = "repro-flat-bst-v2"

#: the previous layout (records with resolved strings), still loaded
_FLAT_LAYOUT_V1 = "repro-flat-bst-v1"


class FlatIntervalStore:
    """Disjoint-interval store over flat columns, API-compatible with
    :class:`~repro.bst.interval_tree.IntervalBST` where the detectors
    need it (``len``, ``stats``, ``clear``, iteration, checkpointing) —
    but trafficking in interned record tuples, not ``MemoryAccess``."""

    __slots__ = ("_key", "_hi", "_left", "_right", "_height", "_aug",
                 "_rec", "_free", "root", "_size", "_balanced", "stats")

    def __init__(self, *, balanced: bool = True) -> None:
        self._key: List[int] = []
        self._hi: List[int] = []
        self._left: List[int] = []
        self._right: List[int] = []
        self._height: List[int] = []
        self._aug: List[int] = []
        self._rec: List[Optional[Rec]] = []
        self._free: List[int] = []
        self.root = -1
        self._size = 0
        self._balanced = balanced
        self.stats = TreeStats()

    # -- size / iteration ------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def __iter__(self) -> Iterator[Rec]:
        """In-order traversal of records (ascending key)."""
        left = self._left
        right = self._right
        recs = self._rec
        stack: List[int] = []
        i = self.root
        while stack or i >= 0:
            while i >= 0:
                stack.append(i)
                i = left[i]
            i = stack.pop()
            yield recs[i]  # type: ignore[misc]
            i = right[i]

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
        self._rec.clear()
        self._free.clear()
        self.root = -1
        self._size = 0

    def snapshot(self) -> List[Rec]:
        """In-order copy of the stored records (tests, reports)."""
        return list(self)

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
            self._rec[idx] = rec
        else:
            idx = len(karr)
            karr.append(key)
            hiarr.append(hi)
            left.append(-1)
            right.append(-1)
            height.append(1)
            aug.append(hi)
            self._rec.append(rec)
        stats = self.stats
        i = self.root
        if i < 0:
            self.root = idx
        else:
            path: List[int] = []
            append = path.append
            # descent and attach fused: the final comparison's direction
            # is remembered, not recomputed (counts are len(path) either
            # way — one comparison per visited node)
            while True:
                append(i)
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
            # Bottom-up refresh + rebalance of the descent path,
            # re-attaching any rotated subtree root to its parent (what
            # the recursive object implementation does via returns).
            # Once a node's height AND max-hi come out unchanged,
            # nothing above it can change either — one insert needs at
            # most one (single or double) rotation, and past it every
            # ancestor refresh is a no-op — so the walk stops early.
            # Comparison/rotation *counts* are untouched by the early
            # exit: the object core's extra _rebalance calls up the
            # path never count anything.
            #
            # A non-rotated ancestor's subtree keeps its old record set
            # plus exactly the new record, so its refreshed max-hi is
            # max(old aug, hi) — no child reads needed on that branch.
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
                    oa = aug[node]
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
                    oa = aug[node]
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
                    # no rotation: refreshed aug is max(old aug, hi)
                    nh = (lh if lh > rh else rh) + 1
                    if nh != height[node]:
                        height[node] = nh
                        if hi > aug[node]:
                            aug[node] = hi
                        continue
                    if hi > aug[node]:
                        aug[node] = hi
                        continue
                    break
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
        recs = self._rec
        stats = self.stats
        path: List[int] = []
        append = path.append
        visited = 0
        while i >= 0:
            visited += 1
            k = karr[i]
            if key < k:
                append(i)
                i = left[i]
            elif key > k:
                append(i)
                i = right[i]
            elif recs[i] == rec:
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
        recs[i] = None
        self._free.append(i)
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
                spush = spine.append
                m = left[m]
                while left[m] >= 0:
                    spush(m)
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
        elif self._rec[i] == rec:
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
        self._rec[i] = None
        self._free.append(i)
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
            recs = self._rec
            append_out = out.append
            # prune at push time: a child with aug <= lo would only be
            # popped and skipped, so never stack it — the visited set
            # (and thus the comparison count) is identical either way
            if aug[i] > lo:
                stack = [i]
                pop = stack.pop
                push = stack.append
                while stack:
                    i = pop()
                    visited += 1
                    l = left[i]
                    if l >= 0 and aug[l] > lo:
                        push(l)
                    if karr[i] < hi:
                        if lo < hiarr[i]:
                            append_out(recs[i])  # type: ignore[arg-type]
                        r = right[i]
                        if r >= 0 and aug[r] > lo:
                            push(r)
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
        """Portable ``repro-ckpt-v1`` encoding of the columns.

        Interned ids are process-local, so the records travel with the
        id → value tables of the sites (filename, line) and accum ops
        they use; a store restored in another process re-interns those
        values and remaps its records.  The records themselves are
        copied as they are — a checkpoint per chunk must not rebuild
        every stored record.  Structure (indices, free list, root)
        round-trips exactly, so the restored store's future behavior —
        including slot reuse order and every stats delta — is
        identical.
        """
        recs = list(self._rec)
        sites = set()
        accums = set()
        for r in recs:
            if r is not None:
                sites.add(r[3])
                accums.add(r[7])
        site_val = SITES.value
        accum_val = ACCUMS.value
        return {
            "layout": FLAT_LAYOUT,
            "balanced": self._balanced,
            "root": self.root,
            "size": self._size,
            "free": list(self._free),
            "key": list(self._key),
            "hi": list(self._hi),
            "left": list(self._left),
            "right": list(self._right),
            "height": list(self._height),
            "aug": list(self._aug),
            "recs": recs,
            "sites": {i: (site_val(i).filename, site_val(i).line)
                      for i in sites},
            "accums": {i: accum_val(i) for i in accums},
            "stats": self.stats.to_dict(),
        }

    def load_state(self, state: dict) -> None:
        """Rebuild from :meth:`save_state` output (re-interning ids)."""
        layout = state.get("layout")
        if layout not in (FLAT_LAYOUT, _FLAT_LAYOUT_V1):
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
        recs: List[Optional[Rec]] = []
        if layout == _FLAT_LAYOUT_V1:
            for r in state["recs"]:
                if r is None:
                    recs.append(None)
                else:
                    recs.append((r[0], r[1], r[2],
                                 site_id(DebugInfo(r[3], r[4])),
                                 r[5], r[6], r[7], accum_id(r[8]), r[9]))
        else:
            sites = {i: site_id(DebugInfo(*v))
                     for i, v in state["sites"].items()}
            accums = {i: accum_id(v) for i, v in state["accums"].items()}
            recs = list(state["recs"])
            if any(i != j for i, j in sites.items()) or any(
                    i != j for i, j in accums.items()):
                # another process interned in another order: remap
                recs = [None if r is None else
                        r[:3] + (sites[r[3]],) + r[4:7]
                        + (accums[r[7]], r[8]) for r in recs]
        self._rec = recs
        self.stats = TreeStats.from_dict(state["stats"])

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
            rec = self._rec[i]
            assert rec is not None, f"free row {i} still linked"
            assert self._key[i] == rec[0] and self._hi[i] == rec[1], (
                f"row {i} columns disagree with its record")
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
        ordered = list(self)
        for a, b in zip(ordered, ordered[1:]):
            assert a[1] <= b[0], f"stored records overlap: {a} vs {b}"
