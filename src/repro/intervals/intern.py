"""Interned-id tables shared by every flat-core detector in a process.

The flat detector core (:mod:`repro.bst.flat`,
:mod:`repro.core.flatcore`) stores each access as a plain 9-tuple of
ints — no :class:`MemoryAccess` objects on the hot path.  The two
non-integer fields are interned here:

* :data:`SITES` maps a :class:`DebugInfo` (filename, line) to a small
  int and back,
* :data:`ACCUMS` maps an accumulate-op string (or ``None``) to a small
  int and back; id 0 is reserved for ``None`` so ``rec[7]`` doubles as
  the ``is_atomic`` truth value.

Both tables are process-wide singletons on purpose: every detector in
the process shares one id space, so records can move between stores
(and between a detector and a race report) without translation.  Ids
are *process-local* — checkpoints always resolve them back to strings
(:meth:`repro.bst.flat.FlatIntervalStore.save_state`), never persist
raw ids.

Interning is bijective, which is what makes tuple equality/hashing on
records agree exactly with :class:`MemoryAccess` equality/hashing —
the property the flat core's ``Counter``-based insertion delta and the
object-core differential tests rely on.

Record layout (index → field)::

    0 lo   1 hi   2 type(int)   3 site id   4 origin (rank|OriginSet)
    5 seq  6 flush_gen          7 accum id  8 excl_epoch (int|None)
"""

from __future__ import annotations

import threading
from typing import Hashable, List, Optional, Tuple

from .access import MIXED_ACCUM_OP, AccessType, DebugInfo, MemoryAccess
from .interval import Interval

__all__ = [
    "ACCUMS",
    "MIXED_ID",
    "SITES",
    "InternTable",
    "access_to_rec",
    "rec_to_access",
]

#: the flat access record: (lo, hi, type, site, origin, seq, flush_gen,
#: accum, excl_epoch) — see module docstring for the index map
Rec = Tuple[int, int, int, int, int, int, int, int, Optional[int]]


class InternTable:
    """Append-only bidirectional value ↔ small-int map.

    The hit path is a single dict probe; the miss path takes a lock so
    concurrent analyses (``repro serve`` worker threads) can never mint
    two ids for one value.  Ids are never reused or reordered.
    """

    __slots__ = ("_ids", "_vals", "_lock")

    def __init__(self, seed: Tuple[Hashable, ...] = ()) -> None:
        self._vals: List = list(seed)
        self._ids = {v: i for i, v in enumerate(self._vals)}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._vals)

    def id_of(self, value: Hashable) -> int:
        i = self._ids.get(value)
        if i is None:
            with self._lock:
                i = self._ids.get(value)
                if i is None:
                    self._vals.append(value)
                    i = len(self._vals) - 1
                    self._ids[value] = i
        return i

    def value(self, i: int):
        return self._vals[i]


#: (filename, line) provenance table — seeded lazily by the first access
SITES = InternTable()

#: accumulate-op table; id 0 == ``None`` (not atomic), so ``rec[7]``
#: is truthy exactly when the access is atomic
ACCUMS = InternTable(seed=(None,))

#: interned id of the §4.1 mixed-accumulate sentinel (see
#: :data:`repro.intervals.access.MIXED_ACCUM_OP`)
MIXED_ID = ACCUMS.id_of(MIXED_ACCUM_OP)


def access_to_rec(access: MemoryAccess) -> Rec:
    """Intern one :class:`MemoryAccess` into a flat record tuple."""
    iv = access.interval
    return (
        iv.lo,
        iv.hi,
        int(access.type),
        SITES.id_of(access.debug),
        access.origin,
        access.seq,
        access.flush_gen,
        ACCUMS.id_of(access.accum_op),
        access.excl_epoch,
    )


def rec_to_access(rec: Rec) -> MemoryAccess:
    """Materialize a record back into an equal :class:`MemoryAccess`."""
    return MemoryAccess(
        Interval(rec[0], rec[1]),
        AccessType(rec[2]),
        SITES.value(rec[3]),
        rec[4],
        rec[5],
        rec[6],
        ACCUMS.value(rec[7]),
        rec[8],
    )
