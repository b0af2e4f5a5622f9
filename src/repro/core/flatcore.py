"""The flat detector core: Algorithm 1 over interned records.

:class:`FlatDetector` is behaviorally identical to
:class:`~repro.core.detector.OurDetector` — same verdicts, same
forensics bundles, same Table-4 node counts, same ``core.insert.*`` /
``detector.*`` metrics, and same ``bst.*`` ones but the store's own
work (``bst.comparisons`` counts bisect probes, ``bst.rotations``
stays 0) — but its per-event path runs on interned record tuples
(:mod:`repro.intervals.intern`) inside
:class:`~repro.bst.flat.FlatIntervalStore` blocks: no ``MemoryAccess``
allocation, no ``MemoryAccess.replace``, no per-call predicate closure, no
tree descent.  ``MemoryAccess`` objects are materialized only at the
cold edges (race reports, request-completion matching inputs).

The core has two entries.  Wire ingestion
(:meth:`FlatDetector.ingest_wire`) is how every ``repro-trace-v2``
file reaches it: it reads a chunk's binary records directly and builds
no event objects (a salvage read decodes each chunk first, to
quarantine one that fails).  The runtime hooks (:meth:`on_local`,
``on_rma``) take one live or decoded event at a time into
:meth:`_ingest`; decoded trace events reach them through
:func:`~repro.pipeline.shard.dispatch_batch`, as they reach every other
detector.

It is the only "ours" the product builds: every entry point resolves
it from :data:`repro.detectors.DETECTORS`.  The object core is the
reference oracle; ``tests/pipeline/test_core_parity.py`` asserts
byte-identical results between the two on every entry point.  The two
cores share :class:`~repro.core.base.OurDetectorBase` (window/epoch
bookkeeping, §6 flush generations, counters), not each other: this
module imports neither the node-linked AVL tree nor the object core's
insertion, fragmentation and merging code.

Checkpoints: a snapshot names its class, and
:meth:`~repro.detectors.base.Detector.restore` refuses any other
class's (an object-core one included) before touching any state: the
store encodings differ.
"""

from __future__ import annotations

import struct
from collections import Counter
from time import perf_counter_ns
from typing import List

from .. import obs
from ..aliasing import FilterPolicy
from ..bst.flat import FlatIntervalStore
from ..intervals.intern import (
    ACCUMS,
    MIXED_ID,
    SITES,
    Rec,
    access_to_rec,
    rec_to_access,
)
from ..intervals.access import DebugInfo
from ..mpi.errors import TraceFormatError
from ..mpi.memory import RegionKind
from . import base as _base
from .base import COMPLETED_LOCALLY, OurDetectorBase

__all__ = ["FlatDetector"]


class FlatDetector(OurDetectorBase):
    """§4 detector on the flat core (see module docstring).

    ``name`` is inherited (\"Our Contribution\"): both cores are the
    same tool, so verdicts and per-tool metric keys stay identical.
    """

    store_cls = FlatIntervalStore

    #: property-test hook mirroring ``insert_access``'s injectable
    #: predicate: False inserts every access unconditionally (storage
    #: properties without verdict noise).  Not a user knob.
    race_check: bool = True

    # -- trace ingestion -------------------------------------------------------

    def ingest_batch(self, events, nranks: int, *, timeline=None) -> int:
        """:func:`~repro.pipeline.shard.dispatch_batch`; no caller in the
        package (the e2e traced run wraps it; ROADMAP item 4 deletes it)."""
        from ..pipeline.shard import dispatch_batch
        return dispatch_batch(self, events, nranks, timeline=timeline)

    def ingest_wire(self, payload, off: int, nevents: int, ctx,
                    nranks: int, *, timeline=None) -> int:
        """Algorithm 1 straight off a v2 chunk payload (no event objects).

        ``ctx`` is the :class:`~repro.pipeline.format.WireStream` the
        payload came from: the header enum tables, the shared wire
        string table, and the wire-id → interned-id caches.  A local
        the alias filter drops costs one flags-byte read plus two
        region-byte tests; a kept local builds its interned record
        directly from the wire integers — a ``MemoryAccess`` is only
        ever materialized for a race report.  Every analysed access is
        checked for ``0 <= lo < hi`` as it is unpacked, as
        :func:`repro.pipeline.decode.decode` checks it; a local the
        filter drops is not.  Sync records go by their fields
        to :func:`~repro.pipeline.shard.dispatch_sync`, the mapping
        decoded sync events take: they are rare and drive the
        epoch/window state machine.  The record stream
        entering :meth:`_ingest_rec` is identical to decoded-event
        ingestion, so verdicts, forensics, filter counters and obs
        metrics cannot diverge.

        ``timeline`` gets every event before it is analyzed, fanned out
        by the same projection as :meth:`Timeline.record_event_fanout
        <repro.obs.timeline.Timeline.record_event_fanout>`: accesses as
        ``(seq, kind, rank, wid, ctx.timeline_event, record bytes)``
        records, formatted lazily, sync events as records with no
        formatter.  The record bytes are copied out, so a ring never
        pins a chunk.
        Returns the number of events analyzed.
        """
        from ..pipeline import format as _fmt
        from ..pipeline.shard import dispatch_sync

        reg = obs.active()
        u32_at = _fmt._U32.unpack_from
        q_at = _fmt._I64.unpack_from
        local_at = _fmt._LOCAL.unpack_from
        rma_at = _fmt._RMA.unpack_from
        sync_at = _fmt._SYNC.unpack_from
        access_at = _fmt._ACCESS.unpack_from
        nlocal = _fmt._LOCAL.size
        nacc = _fmt._ACCESS.size
        nrma = _fmt._RMA.size
        nsync = _fmt._SYNC.size
        tag_local = _fmt._TAG_LOCAL
        tag_rma = _fmt._TAG_RMA
        tag_sync = _fmt._TAG_SYNC

        strings = ctx.strings
        access_table = ctx.access_table
        sync_table = ctx.sync_table
        region_table = ctx.region_table
        site_ids = ctx.site_ids
        accum_ids = ctx.accum_ids
        site_get = site_ids.get
        accum_get = accum_ids.get
        site_new = SITES.id_of
        accum_new = ACCUMS.id_of

        # per-flags access size: the two optional fields are 4-byte
        # accum-op id (flag 1) and 8-byte exclusive epoch (flag 2)
        skiptab = (nacc, nacc + 4, nacc + 8, nacc + 12)

        def access_rec(pos):
            # wire access → interned record; seq is 0 exactly as the
            # decoded path builds it
            flags = payload[pos]
            lo, hi, tid, fid, line, origin, flush_gen = \
                access_at(payload, pos + 1)
            if not 0 <= lo < hi:
                raise ctx.bad_interval(lo, hi)
            if flags & 1:  # _FLAG_ACCUM
                aid = u32_at(payload, pos + 1 + nacc)[0]
                naccum = accum_get(aid)
                if naccum is None:
                    naccum = accum_ids[aid] = accum_new(strings[aid])
            else:
                naccum = 0
            excl = q_at(payload, pos + 1 + nacc + (flags & 1) * 4)[0] \
                if flags & 2 else None  # _FLAG_EXCL
            sk = fid << 32 | line
            nsite = site_get(sk)
            if nsite is None:
                nsite = site_ids[sk] = site_new(
                    DebugInfo(strings[fid], line))
            return (lo, hi, access_table[tid], nsite, origin, 0,
                    flush_gen, naccum, excl), pos + 1 + skiptab[flags & 3]

        ingest = self._ingest_rec
        filt = self.filter
        policy = filt.policy
        window = RegionKind.WINDOW
        stack = RegionKind.STACK
        # the filter decision is a pure function of the two region
        # bytes (kind id, may-alias — the writer emits 0/1): fold the
        # whole policy into one table lookup per local event
        if policy is FilterPolicy.ALL:
            droptab = bytes(2 * len(region_table))
        elif policy is FilterPolicy.ALIAS:
            droptab = bytes(
                1 if (k is not window and not rma) else 0
                for k in region_table for rma in (0, 1))
        else:  # TSAN-style: instrument everything but the stack
            droptab = bytes(
                1 if k is stack else 0
                for k in region_table for rma in (0, 1))
        rings: dict = {}
        ring_of = timeline.ring if timeline is not None else None
        tl_fmt = ctx.timeline_event  # bound once per chunk
        # a local's rank is read before the filter when the timeline
        # needs it (filtered locals are recorded too)
        eager = ring_of is not None
        sync_lanes = range(nranks)
        by_rank: dict = {}
        for r, w in self._open_epochs:
            by_rank.setdefault(r, []).append(w)
        get_wids = by_rank.get
        seen = 0
        kept = 0
        try:
            for _ in range(nevents):
                tag = payload[off]
                off += 1
                if tag == tag_local:
                    fpos = off + nlocal
                    flags = payload[fpos]
                    rpos = fpos + 1 + skiptab[flags & 3]  # region bytes
                    end = rpos + 2
                    if eager:
                        seq, rank = local_at(payload, off)
                        ring = rings.get(rank)
                        if ring is None:
                            ring = rings[rank] = ring_of(rank)
                        ring.append((seq, "local", rank, -1, tl_fmt,
                                     payload[off:end]))
                    seen += 1
                    if droptab[payload[rpos] * 2 + payload[rpos + 1]]:
                        off = end
                        continue
                    kept += 1
                    if not eager:
                        rank = local_at(payload, off)[1]
                    wids = get_wids(rank)
                    if wids:
                        # access_rec, inlined: this is the one hot decode
                        body = fpos + 1
                        lo, hi, tid, fid, line, origin, flush_gen = \
                            access_at(payload, body)
                        if not 0 <= lo < hi:
                            raise ctx.bad_interval(lo, hi)
                        if flags & 1:
                            aid = u32_at(payload, body + nacc)[0]
                            naccum = accum_get(aid)
                            if naccum is None:
                                naccum = accum_ids[aid] = accum_new(
                                    strings[aid])
                        else:
                            naccum = 0
                        excl = q_at(payload, rpos - 8)[0] if flags & 2 \
                            else None
                        sk = fid << 32 | line
                        nsite = site_get(sk)
                        if nsite is None:
                            nsite = site_ids[sk] = site_new(
                                DebugInfo(strings[fid], line))
                        nrec = (lo, hi, access_table[tid], nsite, origin, 0,
                                flush_gen, naccum, excl)
                        for wid in wids:
                            ingest(rank, wid, nrec, reg)
                    off = end
                elif tag == tag_rma:
                    seq, rank, target, wid = rma_at(payload, off)
                    pos = off + nrma + 12  # skip the op-string id + nbytes
                    orec, pos = access_rec(pos)
                    trec, pos = access_rec(pos)
                    end = pos + 4  # past the two region byte pairs
                    if ring_of is not None:
                        rec = (seq, "rma", rank, wid, tl_fmt,
                               payload[off:end])
                        for side in ((rank,) if target == rank
                                     else (rank, target)):
                            ring = rings.get(side)
                            if ring is None:
                                ring = rings[side] = ring_of(side)
                            ring.append(rec)
                    off = end
                    ingest(rank, wid, orec, reg)
                    ingest(target, wid, trec, reg)
                elif tag == tag_sync:
                    seq, rank, kid, wid = sync_at(payload, off)
                    off += nsync
                    kind = sync_table[kid]
                    if ring_of is not None:
                        timeline.record_sync(kind.value, rank, wid,
                                             sync_lanes, seq=seq)
                    filt.seen += seen
                    filt.kept += kept
                    seen = kept = 0
                    dispatch_sync(self, kind, rank, wid, nranks)
                    by_rank = {}
                    for r, w in self._open_epochs:
                        by_rank.setdefault(r, []).append(w)
                    get_wids = by_rank.get
                else:
                    raise TraceFormatError(
                        f"chunk {ctx.chunk}: unknown event tag {tag}",
                        path=ctx.path)
        except (struct.error, IndexError) as exc:
            raise TraceFormatError(
                f"chunk {ctx.chunk}: malformed event record ({exc})",
                path=ctx.path) from exc
        if off != len(payload):
            raise TraceFormatError(
                f"chunk {ctx.chunk}: {len(payload) - off} trailing bytes",
                path=ctx.path)
        filt.seen += seen
        filt.kept += kept
        return nevents

    def on_local(self, rank, access, region) -> None:
        if not self.filter.instrument(region):
            return
        reg = obs.active()
        ingest = self._ingest
        # iteration without the defensive copy: _ingest never mutates
        # the epoch set
        for r, wid in self._open_epochs:
            if r == rank:
                ingest(rank, wid, access, reg)

    # -- Algorithm 1, flat -----------------------------------------------------

    def _record(self, rank: int, wid: int, access) -> None:
        self._ingest(rank, wid, access, obs.active())

    def _ingest(self, rank: int, wid: int, access, reg,
                _site_get=SITES._ids.get, _site_new=SITES.id_of,
                _accum_get=ACCUMS._ids.get, _accum_new=ACCUMS.id_of):
        """Intern one :class:`MemoryAccess` and run Algorithm 1 on it."""
        # intern inline (dict-probe fast path; id_of only on a miss)
        iv = access.interval
        debug = access.debug
        nsite = _site_get(debug)
        if nsite is None:
            nsite = _site_new(debug)
        ao = access.accum_op
        if ao is None:
            naccum = 0
        else:
            naccum = _accum_get(ao)
            if naccum is None:
                naccum = _accum_new(ao)
        self._ingest_rec(
            rank, wid,
            (iv.lo, iv.hi, access.type, nsite, access.origin, access.seq,
             access.flush_gen, naccum, access.excl_epoch),
            reg, access)

    def _ingest_rec(self, rank: int, wid: int, nrec: Rec, reg,
                    access=None) -> None:
        """Algorithm 1 on an interned record (the wire path's entry).

        ``access`` is the already-materialized :class:`MemoryAccess`
        when the caller had one; the fused wire path passes ``None``
        and an equal object is rebuilt from ``nrec`` only if a race is
        actually reported.
        """
        nlo, nhi, ntype, nsite, norigin, _, nflush, naccum, nexcl = nrec
        key = (rank, wid)
        store = self._stores.get(key)
        if store is None:
            store = FlatIntervalStore()
            self._stores[key] = store
        self._processed += 1
        enabled = reg.enabled
        timed = False
        if enabled:
            if reg is not self._obs_reg:
                self._bind_obs(reg)
            self._c_events.value += 1
            hot = _base._HOT
            if hot is None or hot.reg is not reg:
                hot = _base._bind_hot(reg)
            hot.accesses.value += 1
            t = reg._tick + 1
            reg._tick = t
            timed = not (t & reg.SAMPLE_MASK)
            if timed:
                t0 = perf_counter_ns()
        stats = store.stats
        w0 = stats.comparisons + stats.rotations

        inter = store.find_overlapping(nlo - 1 if nlo > 0 else 0, nhi + 1)
        if timed:
            t1 = perf_counter_ns()
            reg.phase_ns("insert.query", t1 - t0)

        # race check over the truly-overlapping subset (predicate of
        # OurDetector._predicate, inlined: §6 flush exemptions first,
        # then the is_race conditions — overlap is already known)
        overlapping = False
        conflict = None
        if self.race_check:
            for r in inter:
                if r[0] < nhi and nlo < r[1]:
                    overlapping = True
                    stype = r[2]
                    if stype >= 2 and r[4] == norigin:
                        fg = r[6]
                        if fg == COMPLETED_LOCALLY:
                            continue  # completed by the issuer's MPI_Wait
                        if fg < self._flush_gens.get((wid, norigin), 0):
                            continue  # completed by the issuer's own flush
                    if stype < 2 and ntype < 2:
                        continue  # no RMA access involved
                    if not (stype & 1 or ntype & 1):
                        continue  # no write involved
                    saccum = r[7]
                    if saccum and naccum and (
                            saccum == naccum or r[4] == norigin):
                        continue  # §2.1 accumulate atomicity/ordering
                    sexcl = r[8]
                    if (sexcl is not None and nexcl is not None
                            and sexcl != nexcl):
                        continue  # serialized by exclusive lock epochs
                    if r[4] == norigin and stype < 2:
                        continue  # local completed before the RMA call
                    conflict = r
                    break
        else:
            for r in inter:
                if r[0] < nhi and nlo < r[1]:
                    overlapping = True
                    break

        if conflict is not None:
            if enabled:
                hot.races.value += 1
                if timed:
                    reg.phase_ns("insert.race_check",
                                 perf_counter_ns() - t1)
            self.work_units += stats.comparisons + stats.rotations - w0
            if access is None:
                access = rec_to_access(nrec)
            self._report(rank, wid, rec_to_access(conflict), access,
                         phase="data_race_detection")
            self._note_high_water(key)
            return
        if timed:
            t2 = perf_counter_ns()
            reg.phase_ns("insert.race_check", t2 - t1)
            t1 = t2

        # no-op fast path: one stored access subsumes the new one
        if len(inter) == 1:
            r = inter[0]
            if r[0] <= nlo and nhi <= r[1]:
                # stored wins the Table-1 combination (new's rank is
                # strictly lower), or the two are same-site equivalent
                if ntype < r[2] or (
                        r[2] == ntype and r[3] == nsite
                        and r[4] == norigin and r[6] == nflush
                        and r[7] == naccum):
                    if enabled:
                        hot.fastpath.value += 1
                        self._c_fragments.value += 1
                    self.work_units += (
                        stats.comparisons + stats.rotations - w0)
                    return

        if not overlapping:
            # adjacency only: merging is the one possible simplification
            g_lo = nlo
            g_hi = nhi
            absorbed: List[Rec] = []
            if self.enable_merge:
                for r in inter:
                    if ((g_hi == r[0] or r[1] == g_lo)
                            and r[2] == ntype and r[3] == nsite
                            and r[4] == norigin and r[6] == nflush
                            and r[7] == naccum):
                        if r[0] < g_lo:
                            g_lo = r[0]
                        if r[1] > g_hi:
                            g_hi = r[1]
                        absorbed.append(r)
            if absorbed:
                for r in absorbed:
                    store.remove(r)
                store.insert((g_lo, g_hi) + nrec[2:])
            else:
                store.insert(nrec)
            if enabled:
                if absorbed:
                    hot.merges.value += len(absorbed)
                if timed:
                    reg.phase_ns("insert.merge", perf_counter_ns() - t1)
                self._c_fragments.value += 1
                if absorbed:
                    # merged(1) < removed+1 whenever anything was absorbed
                    self._c_merges.value += len(absorbed)
            self.work_units += stats.comparisons + stats.rotations - w0
            return

        # general case: fragmentation (§4.1) by boundary sweep — inter
        # is disjoint and key-ordered, exactly the sweep precondition
        cuts = {nlo, nhi}
        for r in inter:
            cuts.add(r[0])
            cuts.add(r[1])
        points = sorted(cuts)
        frags: List[Rec] = []
        si = 0
        ninter = len(inter)
        ntail = nrec[2:]
        for pi in range(len(points) - 1):
            lo = points[pi]
            hi = points[pi + 1]
            while si < ninter and inter[si][1] <= lo:
                si += 1
            if si < ninter:
                cur = inter[si]
                covering = cur[0] < hi and lo < cur[1]
            else:
                covering = False
            in_new = nlo <= lo and hi <= nhi
            if covering and in_new:
                # Table-1 combination: the higher rank wins, ties keep
                # the new access (AccessType's int value IS the rank)
                if ntype >= cur[2]:
                    f = (lo, hi) + ntail
                else:
                    f = (lo, hi) + cur[2:]
                # combine_accesses' markers: a mixed accum op, and
                # mixed origins of two accumulates
                if (cur[7] or naccum) and cur[7] != naccum:
                    f = f[:7] + (MIXED_ID, f[8])
                if cur[7] and naccum and cur[4] != norigin:
                    # rare: imported on first use
                    from ..intervals.combine import mixed_origin
                    f = f[:4] + (mixed_origin(
                        cur[4], cur[6], norigin, nflush),) + f[5:]
                frags.append(f)
            elif covering:
                frags.append((lo, hi) + cur[2:])
            elif in_new:
                frags.append((lo, hi) + ntail)
            # else: a gap outside both — nothing stored there
        if timed:
            t2 = perf_counter_ns()
            reg.phase_ns("insert.fragment", t2 - t1)

        # merging (§4.2): frags are already address-ordered and
        # disjoint; coalesce adjacent same-site runs, keeping the
        # earlier fragment's provenance fields
        if self.enable_merge and frags:
            merged = [frags[0]]
            for f in frags[1:]:
                p = merged[-1]
                if ((p[1] == f[0] or f[1] == p[0])
                        and p[2] == f[2] and p[3] == f[3]
                        and p[4] == f[4] and p[6] == f[6]
                        and p[7] == f[7]):
                    merged[-1] = (
                        p[0] if p[0] < f[0] else f[0],
                        p[1] if p[1] > f[1] else f[1]) + p[2:]
                else:
                    merged.append(f)
        else:
            merged = frags
        if enabled:
            hot.fragments.value += len(frags)
            if len(merged) < len(frags):
                hot.merges.value += len(frags) - len(merged)
            if timed:
                t1 = perf_counter_ns()
                reg.phase_ns("insert.merge", t1 - t2)

        # apply only the delta (order mirrors the object core's
        # Counter-based finish_insertion)
        old_c = Counter(inter)
        new_c = Counter(merged)
        for r in (old_c - new_c).elements():
            if not store.remove(r):  # pragma: no cover - tree corruption
                raise RuntimeError(f"access {r} vanished from the BST")
        for r in (new_c - old_c).elements():
            store.insert(r)
        if timed:
            reg.phase_ns("insert.apply", perf_counter_ns() - t1)
        self.work_units += stats.comparisons + stats.rotations - w0
        if enabled:
            self._c_fragments.value += len(merged)
            nrem = sum((old_c - new_c).values())
            if nrem and len(merged) < nrem + 1:
                self._c_merges.value += nrem + 1 - len(merged)
        # no per-record high-water update: ``stats.max_size`` is
        # monotone for a store's lifetime and every store is noted
        # (``_note_high_water``) at epoch end, window free, barrier
        # prune, and ``node_stats`` — the recorded peak is identical

    # -- §6 synchronization handling -------------------------------------------

    def on_request_complete(self, rank: int, wid: int, access) -> None:
        store = self._stores.get((rank, wid))
        if store is None:
            return
        arec = access_to_rec(access)
        for r in store.find_overlapping(arec[0], arec[1]):
            if r == arec:
                store.remove(r)
                store.insert(r[:6] + (COMPLETED_LOCALLY,) + r[7:])
                return

    def on_barrier(self) -> None:
        flushed = self._flushed
        for (rank, wid), store in self._stores.items():
            if not store:
                continue
            # decided per tail (type, origin, flush_gen): local accesses
            # complete at the barrier, and so do RMA accesses their
            # issuer has flushed since
            survivors = store.select(
                lambda t: t[0] >= 2 and not flushed(wid, t[2], t[4]))
            if len(survivors) < len(store):
                self._note_high_water((rank, wid))
                stats = store.stats
                w0 = stats.comparisons + stats.rotations
                store.clear()
                for r in survivors:
                    store.insert(r)
                self.work_units += (
                    stats.comparisons + stats.rotations - w0
                    + len(survivors))
