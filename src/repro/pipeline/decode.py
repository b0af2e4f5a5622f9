"""``repro-trace-v2`` records as trace-event objects.

The flat core ingests a chunk's records straight off the wire
(``FlatDetector.ingest_wire``), so a default analysis never builds an
event.  This module does, for the readers that need objects: a salvage
read, which decodes each chunk to quarantine one that fails before the
core sees any of its records; the baseline detectors, fed decoded
chunks; and iterating a :class:`~repro.pipeline.format.TraceReader`
(the Chrome export, trace tools).  :class:`~repro.pipeline.format.
WireStream` and :class:`~repro.pipeline.format.TraceReader` reach it
through their ``decode_or_quarantine``, ``__iter__`` and
``iter_chunks`` methods.
"""

from __future__ import annotations

import struct
from typing import Iterator, List, Optional, Tuple

from ..intervals import DebugInfo, Interval, MemoryAccess
from ..mpi.errors import TraceFormatError
from ..mpi.memory import RegionInfo
from ..mpi.trace import LocalEvent, RmaEvent, SyncEvent, TraceEvent
from .format import (_ACCESS, _FLAG_ACCUM, _FLAG_EXCL, _I64, _LOCAL, _RMA,
                     _SYNC, _TAG_LOCAL, _TAG_RMA, _TAG_SYNC, _U32,
                     TraceReader, WireStream)

__all__ = ["chunks", "decode", "decode_or_quarantine"]


def _access(stream: WireStream, payload,
            pos: int) -> Tuple[MemoryAccess, int]:
    flags = payload[pos]
    lo, hi, tid, fid, line, origin, flush_gen = \
        _ACCESS.unpack_from(payload, pos + 1)
    if not 0 <= lo < hi:
        raise stream.bad_interval(lo, hi)
    pos += 1 + _ACCESS.size
    accum = None
    excl = None
    if flags & _FLAG_ACCUM:
        accum = stream.strings[_U32.unpack_from(payload, pos)[0]]
        pos += _U32.size
    if flags & _FLAG_EXCL:
        excl = _I64.unpack_from(payload, pos)[0]
        pos += _I64.size
    key = fid << 32 | line
    debug = stream._debug.get(key)
    if debug is None:
        debug = stream._debug[key] = DebugInfo(stream.strings[fid], line)
    return MemoryAccess(Interval(lo, hi), stream.access_table[tid], debug,
                        origin, 0, flush_gen, accum, excl), pos


def decode(stream: WireStream, payload: bytes, off: int,
           nevents: int) -> List[TraceEvent]:
    """Materialize one chunk's records as trace-event objects."""
    strings = stream.strings
    regions = stream.region_table
    out: List[TraceEvent] = []
    try:
        for _ in range(nevents):
            tag = payload[off]
            off += 1
            if tag == _TAG_LOCAL:
                seq, rank = _LOCAL.unpack_from(payload, off)
                acc, off = _access(stream, payload, off + _LOCAL.size)
                out.append(LocalEvent(seq, rank, acc, RegionInfo(
                    regions[payload[off]], bool(payload[off + 1]))))
                off += 2
            elif tag == _TAG_RMA:
                seq, rank, target, wid = _RMA.unpack_from(payload, off)
                off += _RMA.size
                op = strings[_U32.unpack_from(payload, off)[0]]
                nbytes = _I64.unpack_from(payload, off + _U32.size)[0]
                oacc, off = _access(stream, payload,
                                    off + _U32.size + _I64.size)
                tacc, off = _access(stream, payload, off)
                out.append(RmaEvent(
                    seq, rank, op, target, wid, oacc, tacc,
                    RegionInfo(regions[payload[off]],
                               bool(payload[off + 1])),
                    RegionInfo(regions[payload[off + 2]],
                               bool(payload[off + 3])),
                    nbytes))
                off += 4
            elif tag == _TAG_SYNC:
                seq, rank, kid, wid = _SYNC.unpack_from(payload, off)
                off += _SYNC.size
                out.append(SyncEvent(seq, rank, stream.sync_table[kid], wid))
            else:
                raise TraceFormatError(
                    f"chunk {stream.chunk}: unknown event tag {tag}",
                    path=stream.path)
    except (struct.error, IndexError) as exc:
        raise TraceFormatError(
            f"chunk {stream.chunk}: malformed event record ({exc})",
            path=stream.path) from None
    if off != len(payload):
        raise TraceFormatError(
            f"chunk {stream.chunk}: {len(payload) - off} trailing bytes",
            path=stream.path)
    return out


def decode_or_quarantine(stream: WireStream, payload: bytes, off: int,
                         nevents: int) -> Optional[List[TraceEvent]]:
    """:func:`decode`, except that a salvage reader quarantines a chunk
    that fails to decode (and gets ``None``)."""
    try:
        return decode(stream, payload, off, nevents)
    except TraceFormatError:
        if stream.reader.strict:
            raise
    stream.events -= nevents
    stream._lose(nevents)
    return None


def chunks(reader: TraceReader, start: Optional[dict]
           ) -> Iterator[Tuple[List[TraceEvent], dict]]:
    """``(events, cursor)`` per chunk the reader keeps (see
    :meth:`~repro.pipeline.format.TraceReader.iter_chunks`)."""
    stream = WireStream(reader, start)
    for payload, off, nevents in stream:
        events = decode_or_quarantine(stream, payload, off, nevents)
        if events is not None:
            yield events, stream.cursor()
