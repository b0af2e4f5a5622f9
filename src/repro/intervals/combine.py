"""Access-type combination — paper Table 1.

When the fragmentation step (§4.1) creates the ``intersection_frag`` of a
stored access and a new access, the fragment must carry a single access
type and a single debug info.  Table 1 of the paper defines the result:

* an RMA access *prevails* over a local access,
* a WRITE access *prevails* over a READ access,
* on a tie (same access type) the debug info of the *most recent*
  access is kept.

The red cells of Table 1 (a race may exist) are never reached during
fragmentation because :func:`repro.core.insertion.insert_access` only
fragments after the race check passed; they are still representable here
(`combined_type` is total) so the table can be regenerated and tested
exhaustively.
"""

from __future__ import annotations

from typing import Tuple, Union

from .access import MIXED_ACCUM_OP, AccessType, MemoryAccess

__all__ = ["combined_type", "combine_accesses", "mixed_origin",
           "table1_rows", "MIXED_ACCUM_OP", "OriginSet"]

#: ``origin`` of a fragment built from accumulates of different origins
#: (the origin counterpart of :data:`MIXED_ACCUM_OP`): its *origin set*,
#: one ``(rank, flush_gen)`` pair per rank with that rank's newest flush
#: generation, sorted by rank.  It equals no rank, so neither
#: same-origin exemption — accumulate ordering (§2.1), completion by
#: the issuer's own flush or wait (§6) — fires against it: the fragment
#: stands for several ranks' accumulates, and a later access from one
#: of them still races with the others'.  The pairs keep each rank's
#: completion state: a barrier prunes the fragment only once every rank
#: has flushed its share.
OriginSet = Tuple[Tuple[int, int], ...]


def _rank(t: AccessType) -> Tuple[int, int]:
    """Dominance key: RMA beats local, then WRITE beats READ."""
    return (1 if t.is_rma else 0, 1 if t.is_write else 0)


def mixed_origin(a: Union[int, OriginSet], a_gen: int,
                 b: Union[int, OriginSet], b_gen: int) -> OriginSet:
    """The origin set of a fragment combined from accesses of origins
    ``a`` and ``b`` (each a rank with its flush generation, or already
    an origin set, whose generation field is then not used)."""
    newest = {}
    for origin, gen in ((a, a_gen), (b, b_gen)):
        for rank, g in (origin if type(origin) is tuple
                        else ((origin, gen),)):
            newest[rank] = max(g, newest.get(rank, g))
    return tuple(sorted(newest.items()))


def combined_type(stored: AccessType, new: AccessType) -> Tuple[AccessType, int]:
    """Resulting type of an intersection fragment, per Table 1.

    Returns ``(type, which)`` where ``which`` is 1 when the *stored*
    access's type (and debug info) wins and 2 when the *new* one wins —
    mirroring the ``*-1`` / ``*-2`` suffixes of the paper's table.  Ties
    keep the most recent access (the new one, ``which == 2``).
    """
    if _rank(new) >= _rank(stored):
        return new, 2
    return stored, 1


def combine_accesses(stored: MemoryAccess, new: MemoryAccess) -> MemoryAccess:
    """Build the ``intersection_frag`` payload for two intersecting accesses.

    The caller is responsible for restricting the result to the actual
    geometric intersection; this function only decides type/provenance.
    """
    _, which = combined_type(stored.type, new.type)
    winner = new if which == 2 else stored
    inter = stored.interval.intersection(new.interval)
    if inter is None:
        raise ValueError(f"accesses do not intersect: {stored} vs {new}")
    frag = winner.with_interval(inter)
    if (
        (stored.is_atomic or new.is_atomic)
        and stored.accum_op != new.accum_op
    ):
        # e.g. same-origin Accumulate(sum) then Accumulate(max): exempt
        # from racing with each other (accumulate ordering), but the
        # fragment must not inherit a single op — a later cross-origin
        # accumulate matching the winner's op would wrongly pass the
        # same-op atomicity exemption and hide a real race
        frag = frag.replace(accum_op=MIXED_ACCUM_OP)
    if stored.is_atomic and new.is_atomic and stored.origin != new.origin:
        # e.g. Accumulate(max) from ranks 0 and 2: exempt from racing
        # with each other (same op), but the fragment must not keep a
        # single origin — a later Accumulate(sum) from the kept origin
        # would wrongly pass the same-origin ordering exemption and hide
        # its race with the other origin's max; the origin set keeps
        # each rank's flush generation for the barrier prune
        frag = frag.replace(origin=mixed_origin(
            stored.origin, stored.flush_gen, new.origin, new.flush_gen))
    return frag


def table1_rows() -> list[list[str]]:
    """Regenerate paper Table 1 as a list of rows of cell strings.

    Cells show ``<Type>-<which>`` exactly like the paper, with ``x``
    substituted for the red data-race cells (see
    :func:`repro.intervals.conflict.types_conflict`).
    """
    from .conflict import types_conflict  # local import: avoid cycle

    order = [
        AccessType.LOCAL_READ,
        AccessType.LOCAL_WRITE,
        AccessType.RMA_READ,
        AccessType.RMA_WRITE,
    ]
    rows: list[list[str]] = []
    for stored in order:
        row: list[str] = [f"{stored.short}-1"]
        for new in order:
            if types_conflict(stored, new):
                row.append("x")
            else:
                t, which = combined_type(stored, new)
                row.append(f"{t.short}-{which}")
        rows.append(row)
    return rows
