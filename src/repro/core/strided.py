"""Strided merging — the paper's §6(3) future-work extension, implemented.

MiniVite defeats the §4.2 merging algorithm because its per-vertex
attribute accesses are *strided*: the same source line touches
``base + k * stride`` for k = 0, 1, 2, ... — never adjacent, so nothing
coalesces and the BST stays as large as the original tool's (Table 4).
The paper closes §6 suggesting the fix: "using polyhedra to abstract
memory regions ... the merging algorithm can be extended to non-adjacent
accesses when we can ensure that no accesses will be done between".

This module implements that idea for the 1-D case (a constant-stride
arithmetic progression is exactly a one-dimensional polyhedron à la
Ketterlin & Clauss trace compression):

* a :class:`StridedChain` represents ``reps`` same-site accesses of
  ``length`` bytes at ``base + k * stride``;
* :class:`StridedDetector` extends :class:`OurDetector`: when a new
  access continues the most recent same-site access at a constant
  stride, it is absorbed into a chain *instead of* becoming a BST node;
* soundness is preserved exactly: race checks test membership in the
  chain (not just its envelope), and any access that lands *between*
  members — the "no accesses in between" proviso — explodes the chain
  back into plain nodes before normal insertion proceeds.

The node-count payoff on MiniVite is measured by
``benchmarks/bench_extension_strided.py`` and discussed in
EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..intervals import Interval, MemoryAccess
from .detector import OurDetector

__all__ = ["StridedChain", "StridedDetector", "site_key"]

SiteKey = Tuple[int, str, int, int, int, Optional[str], int]


def site_key(acc: MemoryAccess) -> SiteKey:
    """The §4.2 merge-equivalence key plus the element length."""
    return (
        int(acc.type),
        acc.debug.filename,
        acc.debug.line,
        acc.origin,
        acc.flush_gen,
        acc.accum_op,
        len(acc.interval),
    )


@dataclass
class StridedChain:
    """``reps`` accesses of ``length`` bytes at ``base + k * stride``."""

    template: MemoryAccess  # carries type/debug/origin/... of every member
    base: int
    stride: int
    reps: int

    @property
    def length(self) -> int:
        return len(self.template.interval)

    @property
    def envelope(self) -> Interval:
        return Interval(self.base, self.base + self.stride * (self.reps - 1)
                        + self.length)

    @property
    def next_lo(self) -> int:
        return self.base + self.stride * self.reps

    def member(self, k: int) -> MemoryAccess:
        lo = self.base + k * self.stride
        return self.template.with_interval(Interval(lo, lo + self.length))

    def members(self) -> List[MemoryAccess]:
        return [self.member(k) for k in range(self.reps)]

    def overlapping_member(self, interval: Interval) -> Optional[MemoryAccess]:
        """The first chain member overlapping ``interval``, if any."""
        if not self.envelope.overlaps(interval):
            return None
        # members covering [lo, hi): k with base + k*s < hi and
        # base + k*s + length > lo
        k_lo = max(0, (interval.lo - self.length - self.base) // self.stride)
        k_hi = min(self.reps - 1, (interval.hi - 1 - self.base) // self.stride)
        for k in range(k_lo, k_hi + 1):
            member_lo = self.base + k * self.stride
            if member_lo < interval.hi and interval.lo < member_lo + self.length:
                return self.member(k)
        return None

    def extends(self, acc: MemoryAccess) -> bool:
        """Would ``acc`` be the chain's next member?"""
        return acc.interval.lo == self.next_lo and len(acc.interval) == self.length


class StridedDetector(OurDetector):
    """Our contribution + strided merging of non-adjacent accesses."""

    name = "Our Contribution (strided)"

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        # per (rank, wid): active chains by site, and the last plain
        # access per site (a chain seed candidate)
        self._chains: Dict[Tuple[int, int], Dict[SiteKey, StridedChain]] = {}
        self._seeds: Dict[Tuple[int, int], Dict[SiteKey, MemoryAccess]] = {}
        self.chains_formed = 0
        self.accesses_absorbed = 0

    # -- bookkeeping ----------------------------------------------------------

    def _store_chains(self, rank: int, wid: int) -> Dict[SiteKey, StridedChain]:
        return self._chains.setdefault((rank, wid), {})

    def _store_seeds(self, rank: int, wid: int) -> Dict[SiteKey, MemoryAccess]:
        return self._seeds.setdefault((rank, wid), {})

    # -- the extended record path ----------------------------------------------

    def _record(self, rank: int, wid: int, access: MemoryAccess) -> None:
        chains = self._store_chains(rank, wid)
        key = site_key(access)

        # 1. race check against every chain whose member set the access hits
        pred = self._predicate(wid)
        for ckey, chain in list(chains.items()):
            member = chain.overlapping_member(access.interval)
            self.work_units += 2  # envelope test + member arithmetic
            if member is None:
                continue
            if pred(member, access):
                self._report(rank, wid, member, access,
                             phase="data_race_detection")
                return
            if ckey != key or not chain.extends(access):
                # touches the chain without extending it: the "no access
                # in between" guarantee is gone — explode to plain nodes
                self._explode(rank, wid, ckey)

        chains = self._store_chains(rank, wid)
        chain = chains.get(key)

        # 2. extension of an existing chain?
        if chain is not None and chain.extends(access):
            chain.reps += 1
            self.accesses_absorbed += 1
            self.work_units += 1
            return

        # 3. does it form a new chain with the seed access?
        seeds = self._store_seeds(rank, wid)
        seed = seeds.get(key)
        if (
            seed is not None
            and chain is None
            and access.interval.lo > seed.interval.lo + len(seed.interval)
        ):
            stride = access.interval.lo - seed.interval.lo
            candidate = StridedChain(seed, seed.interval.lo, stride, 2)
            # the new member must not collide with anything stored
            bst = self._store(rank, wid)
            if not bst.find_overlapping(candidate.member(1).interval):
                if bst.remove(seed):
                    chains[key] = candidate
                    self.chains_formed += 1
                    self.accesses_absorbed += 1
                    del seeds[key]
                    self._note_high_water((rank, wid))
                    return

        # 4. plain path: Algorithm 1 on the BST
        super()._record(rank, wid, access)
        if access.interval.lo >= 0:
            seeds[key] = access

    def _explode(self, rank: int, wid: int, key: SiteKey) -> None:
        """Reinsert a chain's members as plain nodes (soundness fallback)."""
        chain = self._store_chains(rank, wid).pop(key, None)
        if chain is None:
            return
        bst = self._store(rank, wid)
        for member in chain.members():
            bst.insert(member)
        self.work_units += chain.reps
        self._note_high_water((rank, wid))

    # -- epoch / sync handling ----------------------------------------------------

    def on_epoch_end(self, rank: int, wid: int) -> None:
        self._note_chain_high_water()
        self._chains.pop((rank, wid), None)
        self._seeds.pop((rank, wid), None)
        super().on_epoch_end(rank, wid)

    def on_win_free(self, wid: int) -> None:
        self._note_chain_high_water()
        for key in [k for k in self._chains if k[1] == wid]:
            del self._chains[key]
        for key in [k for k in self._seeds if k[1] == wid]:
            del self._seeds[key]
        super().on_win_free(wid)

    def on_barrier(self) -> None:
        """Prune completed chains the way plain completed accesses prune."""
        self._note_chain_high_water()
        for (rank, wid), chains in self._chains.items():
            for key in list(chains):
                tpl = chains[key].template
                if tpl.type.is_local or self._flushed(
                    wid, tpl.origin, tpl.flush_gen
                ):
                    del chains[key]
        super().on_barrier()

    # -- statistics ------------------------------------------------------------------

    _chain_peak = 0

    def _note_chain_high_water(self) -> None:
        live = sum(len(c) for c in self._chains.values())
        if live > self._chain_peak:
            self._chain_peak = live

    def node_stats(self):
        stats = super().node_stats()
        self._note_chain_high_water()
        # each live chain is one retained node's worth of state
        live_chains = sum(len(c) for c in self._chains.values())
        stats.total_current_nodes += live_chains
        stats.total_max_nodes += self._chain_peak
        return stats
