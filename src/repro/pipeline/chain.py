"""The rolling hash chain of a ``repro-trace-v2`` file, for incremental analysis.

Every chunk frame stores ``chain[k] = sha256(chain[k-1] + payload[k])``
(see :mod:`repro.pipeline.format`), so two traces share chain value k
iff they are byte-identical through chunk k.  :func:`trace_chain`
walks a file's frames and :func:`compare_chain` relates two walks: the
daemon's prefix-resume and a resumed checkpoint's trace check use
them, a default analysis does not (the reader verifies each stored
digest as it goes).
"""

from __future__ import annotations

from itertools import islice
from pathlib import Path
from typing import List, Optional, Union

from .format import CHAIN_ALGO, TraceReader, WireStream

__all__ = ["compare_chain", "trace_chain"]


class _FrameWalk(WireStream):
    """A :class:`WireStream` over the frames alone: the chain commits to
    payload bytes, so the chunks' string tables are not decoded."""

    def _take_strings(self, payload: bytes, chunk_no: int) -> int:
        return 0


def trace_chain(path: Union[str, Path], upto: Optional[int] = None) -> dict:
    """Rolling hash chain of a trace, computed without decoding events.

    A strict, tail-mode :class:`WireStream` walk of the frames only —
    one crc verify, one sha256 update and one stored-digest compare per
    chunk, no string table decoded — so it is cheap enough to run at
    serve admission on every upload.  Returns::

        {"algo": "sha256",
         "chunks": [hex chain value after chunk 1, 2, ...],
         "offsets": [file offset just past chunk 1, 2, ...],
         "events": [cumulative event count after chunk 1, 2, ...],
         "complete": bool}            # reached a valid trailer

    ``upto`` stops after that many chunks (``complete`` is then about
    the trailer only if it was reached, i.e. normally False).  A torn
    tail simply ends the walk (``complete=False``), matching tail-reader
    semantics.  Damage raises :class:`~repro.mpi.errors.TraceFormatError`
    — a stored chain digest that disagrees with the recomputed chain (a
    rewritten prefix) as :class:`~repro.mpi.errors.TraceChainMismatch`.
    """
    reader = TraceReader(path)
    reader.tail = True
    stream = _FrameWalk(reader)
    chunks: List[str] = []
    offsets: List[int] = []
    events: List[int] = []
    for _chunk in islice(stream, upto):
        chunks.append(stream.chain.hex())
        offsets.append(stream.pos)
        events.append(stream.events)
    return {
        "algo": CHAIN_ALGO,
        "chunks": chunks,
        "offsets": offsets,
        "events": events,
        "complete": reader.complete,
    }


def compare_chain(old: dict, new: dict) -> dict:
    """Relate two :func:`trace_chain` results.

    Returns ``{"relation", "common", "diverged_at"}`` where relation is
    one of ``identical`` (same chunks), ``extension`` (``new`` extends
    ``old`` append-only), ``truncated`` (``new`` is a proper prefix of
    ``old``) or ``diverged``; ``common`` counts the shared prefix
    chunks and ``diverged_at`` names the first differing chunk (1-based)
    for ``diverged``, else None.

    Because each value hashes the whole prefix, one equal chain value
    at index k proves byte-identity of chunks 1..k — the list compare
    here is belt and braces, not a per-chunk requirement.
    """
    a, b = old["chunks"], new["chunks"]
    common = 0
    for x, y in zip(a, b):
        if x != y:
            break
        common += 1
    if common == len(a) == len(b):
        relation = "identical"
    elif common == len(a):
        relation = "extension"
    elif common == len(b):
        relation = "truncated"
    else:
        relation = "diverged"
    return {
        "relation": relation,
        "common": common,
        "diverged_at": common + 1 if relation == "diverged" else None,
    }
