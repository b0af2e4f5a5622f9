"""Trace writers: the recording side of ``repro-trace-v2``.

The recording side of :mod:`repro.pipeline.format` (the layout is
documented there): :class:`BinaryTraceWriter` streams chunks in
constant memory and :meth:`~BinaryTraceWriter.open_append` reopens a
trace to grow it.  Analysis only reads traces, so it never imports
this module.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

from ..intervals.access import AccessType, MemoryAccess
from ..mpi.errors import TraceFormatError
from ..mpi.memory import RegionInfo, RegionKind
from ..mpi.trace import LocalEvent, RmaEvent, SyncEvent, SyncKind, TraceEvent
from .format import (
    _ACCESS,
    _CHUNK_TAG,
    _END_TAG,
    _FLAG_ACCUM,
    _FLAG_EXCL,
    _FRAME,
    _LOCAL,
    _RMA,
    _SYNC,
    _TAG_LOCAL,
    _TAG_RMA,
    _TAG_SYNC,
    _U32,
    _U64,
    CHAIN_ALGO,
    FORMAT_V2,
    MAGIC_V2,
    TraceReader,
    _chain_next,
    _chain_seed,
)

__all__ = ["BinaryTraceWriter", "make_trace_writer"]

# enum member order as written into the header; readers map ids through
# the header tables, not through these lists
_ACCESS_TYPES = list(AccessType)
_SYNC_KINDS = list(SyncKind)
_REGION_KINDS = list(RegionKind)


def _enum_tables() -> dict:
    return {
        "access": [t.name for t in _ACCESS_TYPES],
        "sync": [k.value for k in _SYNC_KINDS],
        "region": [k.value for k in _REGION_KINDS],
    }


# -- writing -----------------------------------------------------------------


class _StringTable:
    """Write-side interning: ids are assignment order, new strings pend."""

    def __init__(self) -> None:
        self._ids: Dict[str, int] = {}
        self._pending: List[str] = []

    def intern(self, s: str) -> int:
        sid = self._ids.get(s)
        if sid is None:
            sid = len(self._ids)
            self._ids[s] = sid
            self._pending.append(s)
        return sid

    def take_pending(self) -> List[str]:
        pending, self._pending = self._pending, []
        return pending


class BinaryTraceWriter:
    """Streaming v2 writer: ``write`` events one at a time, constant memory.

    Events are buffered into chunks of ``events_per_chunk`` and flushed
    as frames carrying the payload's crc32 and rolling chain digest;
    :meth:`close` (or a clean context-manager exit) appends the trailer
    that lets readers prove the file was not truncated, then atomically
    renames the temp file into ``path``.  An exceptional ``with``-block exit calls
    :meth:`abort` instead, which removes the temp file — an interrupted
    recording never leaves a file that looks complete.

    ``fault_hook``, if given, is called as ``hook(stage, n)`` at
    ``("chunk", chunk_no)`` after each chunk flush and ``("close",
    chunks_flushed)`` on finalize — the seam the fault-injection harness
    uses to simulate recorder crashes deterministically.

    ``live=True`` targets the *follow* workflow: the writer streams
    straight to ``path`` (no temp file, each chunk flushed as written)
    so a tail-mode reader can analyze the trace while it grows.  The
    price is that atomic finalize is off — an interrupted live
    recording leaves a trailerless file, which tail readers classify
    as "in progress" and strict readers as truncated.
    """

    def __init__(
        self,
        path: Union[str, Path],
        *,
        nranks: int,
        events_per_chunk: int = 2048,
        fault_hook: Optional[Callable[[str, int], None]] = None,
        live: bool = False,
    ) -> None:
        if events_per_chunk < 1:
            raise ValueError("events_per_chunk must be positive")
        self.path = Path(path)
        self.nranks = nranks
        self.events_written = 0
        self.chunks_written = 0
        self._per_chunk = events_per_chunk
        self._fault_hook = fault_hook
        self._strings = _StringTable()
        self._buf = bytearray()
        self._chunk_events = 0
        self._done = False
        self._live = bool(live)
        if self._live:
            self._tmp = self.path
        else:
            self._tmp = self.path.with_name(self.path.name + ".tmp")
        self._fh = self._tmp.open("wb")
        try:
            header = json.dumps({
                "format": FORMAT_V2,
                "nranks": nranks,
                "chunk_crc32": True,
                "enums": _enum_tables(),
                "chunk_chain": CHAIN_ALGO,
            }).encode("utf-8")
            hlen_raw = _U32.pack(len(header))
            self._chain = _chain_seed(hlen_raw, header)
            self._fh.write(MAGIC_V2)
            self._fh.write(hlen_raw)
            self._fh.write(header)
            if self._live:
                self._fh.flush()
        except BaseException:
            # e.g. SIGTERM before the caller's ``with`` is entered: no
            # __exit__ will run, so drop the temp file here
            self.abort()
            raise

    @classmethod
    def open_append(
        cls,
        path: Union[str, Path],
        *,
        events_per_chunk: Optional[int] = None,
        fault_hook: Optional[Callable[[str, int], None]] = None,
    ) -> "BinaryTraceWriter":
        """Reopen a trace for appending more chunks (live mode).

        The existing chunks are scanned (framing and checksums
        verified, the incremental string table and the rolling chain
        replayed) and the file is truncated back to the end of its last
        complete chunk — dropping the trailer of a finalized trace, or
        the torn tail of an interrupted live recording.  Writing then
        continues exactly as if the original recorder had never
        stopped: the extended file is byte-for-byte an append-only
        extension, which is what lets chain-aware readers resume from a
        prefix cursor instead of re-analyzing from chunk zero.
        """
        path = Path(path)
        reader = TraceReader(path)
        header = reader._header
        if header.get("enums") != _enum_tables():
            raise TraceFormatError(
                "cannot append: trace was written with different enum "
                "tables", path=path)
        # the strict frame walk verifies checksums and stored chain
        # digests and replays the incremental string table; tail mode
        # ends it cleanly at the last complete chunk (a torn tail or the
        # trailer is cut off below)
        reader.tail = True
        stream = reader.wire_stream()
        first_chunk_events: Optional[int] = None
        chunks = 0
        for _payload, _off, nevents in stream:
            chunks += 1
            if first_chunk_events is None:
                first_chunk_events = nevents
        strings = _StringTable()
        for text in stream.strings:
            strings.intern(text)
        strings.take_pending()  # already on disk, not pending
        total = stream.events
        good_end = stream.pos
        per_chunk = events_per_chunk or first_chunk_events or 2048
        self = cls.__new__(cls)
        self.path = path
        self.nranks = header["nranks"]
        self.events_written = total
        self.chunks_written = chunks
        self._per_chunk = per_chunk
        self._fault_hook = fault_hook
        self._strings = strings
        self._buf = bytearray()
        self._chunk_events = 0
        self._done = False
        self._live = True
        self._tmp = path
        self._chain = stream.chain
        self._fh = path.open("r+b")
        self._fh.seek(good_end)
        self._fh.truncate(good_end)
        return self

    # -- encoding ------------------------------------------------------------

    def _put_access(self, acc: MemoryAccess) -> None:
        buf = self._buf
        flags = 0
        if acc.accum_op is not None:
            flags |= _FLAG_ACCUM
        if acc.excl_epoch is not None:
            flags |= _FLAG_EXCL
        buf.append(flags)
        buf += _ACCESS.pack(
            acc.interval.lo, acc.interval.hi,
            _ACCESS_TYPES.index(acc.type),
            self._strings.intern(acc.debug.filename), acc.debug.line,
            acc.origin, acc.flush_gen,
        )
        if flags & _FLAG_ACCUM:
            buf += _U32.pack(self._strings.intern(acc.accum_op))
        if flags & _FLAG_EXCL:
            buf += struct.pack("<q", acc.excl_epoch)

    def _put_region(self, info: RegionInfo) -> None:
        self._buf.append(_REGION_KINDS.index(info.kind))
        self._buf.append(1 if info.may_alias_rma else 0)

    def write(self, event: TraceEvent) -> None:
        buf = self._buf
        if isinstance(event, LocalEvent):
            buf.append(_TAG_LOCAL)
            buf += _LOCAL.pack(event.seq, event.rank)
            self._put_access(event.access)
            self._put_region(event.region)
        elif isinstance(event, RmaEvent):
            buf.append(_TAG_RMA)
            buf += _RMA.pack(event.seq, event.rank, event.target, event.wid)
            buf += _U32.pack(self._strings.intern(event.op))
            buf += struct.pack("<q", event.nbytes)
            self._put_access(event.origin_access)
            self._put_access(event.target_access)
            self._put_region(event.origin_region)
            self._put_region(event.target_region)
        elif isinstance(event, SyncEvent):
            buf.append(_TAG_SYNC)
            buf += _SYNC.pack(
                event.seq, event.rank, _SYNC_KINDS.index(event.kind), event.wid
            )
        else:
            raise TypeError(f"unknown trace event {event!r}")
        self.events_written += 1
        self._chunk_events += 1
        if self._chunk_events >= self._per_chunk:
            self._flush_chunk()

    def _flush_chunk(self) -> None:
        if not self._chunk_events:
            return
        head = bytearray()
        new_strings = self._strings.take_pending()
        head += _U32.pack(len(new_strings))
        for s in new_strings:
            raw = s.encode("utf-8")
            head += _U32.pack(len(raw))
            head += raw
        payload = bytes(head) + bytes(self._buf)
        self._chain = _chain_next(self._chain, payload)
        self._fh.write(_CHUNK_TAG + _FRAME.pack(
            len(payload), self._chunk_events, zlib.crc32(payload),
            self._chain))
        self._fh.write(payload)
        if self._live:
            self._fh.flush()
        self._buf.clear()
        self._chunk_events = 0
        self.chunks_written += 1
        if self._fault_hook is not None:
            self._fault_hook("chunk", self.chunks_written)

    def close(self) -> None:
        if self._done:
            return
        if self._fault_hook is not None:
            self._fault_hook("close", self.chunks_written)
        self._flush_chunk()
        self._fh.write(_END_TAG)
        self._fh.write(_U64.pack(self.events_written))
        self._fh.close()
        if not self._live:
            os.replace(self._tmp, self.path)
        self._done = True

    def abort(self) -> None:
        """Discard the recording: close and remove the temp file.

        A *live* writer cannot un-publish chunks already flushed to the
        final path; abort just closes the handle, leaving a trailerless
        file that tail readers treat as in-progress and strict readers
        as truncated.
        """
        if self._done:
            return
        self._done = True
        self._fh.close()
        if self._live:
            return
        try:
            self._tmp.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass

    def __enter__(self) -> "BinaryTraceWriter":
        return self

    def __exit__(self, exc_type, *exc) -> None:
        if exc_type is not None:
            self.abort()
        else:
            self.close()


def make_trace_writer(
    path: Union[str, Path], *, nranks: int, format: str = "binary"
):
    """A :class:`BinaryTraceWriter`; ``format`` names the one format
    (``"binary"`` or ``"repro-trace-v2"``)."""
    if format in ("binary", FORMAT_V2):
        return BinaryTraceWriter(path, nranks=nranks)
    raise ValueError(
        f"unknown trace format {format!r} (binary / {FORMAT_V2})")
