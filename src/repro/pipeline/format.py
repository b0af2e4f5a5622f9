"""``repro-trace-v2`` — compact chunked binary traces, streamed both ways.

The one trace format: ``repro record`` writes it, and analysis, the
daemon, ``repro explain`` and the Chrome export read nothing else.  The
recording side runs in constant memory next to the simulation, and the
analysis side streams events into the detector without ever holding
the trace — the MC-Checker lesson that "the recorded trace grows with
the execution" must not apply to the *analyzer's* footprint.

Layout of a file::

    magic    8 bytes   b"REPROTR2"
    header   u32 length + JSON   {"format": "repro-trace-v2",
                                  "nranks": N, "enums": {...},
                                  "chunk_crc32": true,
                                  "chunk_chain": "sha256"}
    chunk*   b"CHNK" + u32 payload bytes + u32 event count
             + u32 crc32(payload) + 32-byte rolling sha256 chain
             + payload
    trailer  b"TEND" + u64 total event count

The chunk frame is defined once, as :data:`_CHUNK_TAG` and
:data:`_FRAME`; the writer, :class:`WireStream` and the fault injectors
all use that definition.  A header without both flags is refused.

The *chain* turns the chunk sequence into a hash chain: ``chain[0] =
sha256(magic + u32(header length) + header bytes)`` and ``chain[k] =
sha256(chain[k-1] + payload[k])``.  Two traces share chain value k iff
they are byte-identical through chunk k, so a reader can prove "this
file is an append-only extension of that one" — or name the exact
chunk where they diverge — by comparing one 32-byte value per file
(:func:`trace_chain` / :func:`compare_chain`).  Every frame stores its
chain value, so a strict reader detects a single-file prefix rewrite
on its own (:class:`~repro.mpi.errors.TraceChainMismatch`).

Each chunk payload starts with the strings *first seen* in that chunk
(file names, op names, accumulate ops); readers grow the same string
table in lockstep, so strings are written once per file.  Events are
fixed little-endian ``struct`` records plus string ids.  Enum members
are encoded as indexes into tables spelled out in the header, so a file
survives enum reordering in future versions of the package.

Robustness:

* Writers (:mod:`repro.pipeline.writer`) stream to ``<path>.tmp`` and
  :func:`os.replace` into place on :meth:`close`, so a crashed
  recording can never leave a final path that passes the trailer
  check; :meth:`abort` (called automatically when the ``with`` block
  exits on an exception) removes the temp file.
* In the default ``strict=True`` mode, malformed input raises
  :class:`~repro.mpi.errors.TraceFormatError` naming the file.  With
  ``strict=False`` the reader *salvages*: corrupt or truncated chunks
  are quarantined using the chunk framing + checksum and iteration
  continues with the remaining chunks, with the damage accounted in
  :attr:`TraceReader.salvage_report` (quarantined chunk numbers, events
  lost, truncation flag).  One caveat is inherent to the incremental
  string table: if a quarantined chunk was the first to intern a
  string, later chunks referencing it decode against a shorter table
  and are quarantined in turn — the accounting stays exact (the trailer
  reconciles the loss), but a corrupt *early* chunk can shadow later
  ones.
"""

from __future__ import annotations

import hashlib
import json
import struct
import zlib
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple, Union

from .._lazy import lazy_exports
from ..intervals import AccessType
from ..mpi.errors import TraceChainMismatch, TraceFormatError
from ..mpi.memory import RegionKind
from ..mpi.trace import SyncKind

if TYPE_CHECKING:
    from ..intervals import DebugInfo
    from ..mpi.trace import TraceEvent

__all__ = [
    "FORMAT_V2",
    "MAGIC_V2",
    "BinaryTraceWriter",
    "TraceReader",
    "WireStream",
    "compare_chain",
    "make_trace_writer",
    "trace_chain",
]

FORMAT_V2 = "repro-trace-v2"
MAGIC_V2 = b"REPROTR2"

#: one chunk frame: this tag, then :data:`_FRAME`, then the payload
_CHUNK_TAG = b"CHNK"
#: payload bytes, event count, crc32(payload), rolling chain digest
_FRAME = struct.Struct("<III32s")
#: the trailer: this tag, then the u64 total event count
_END_TAG = b"TEND"

_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_I64 = struct.Struct("<q")
# lo, hi, type id, file id, line, origin, flush_gen
_ACCESS = struct.Struct("<qqBIIii")
_LOCAL = struct.Struct("<qi")        # seq, rank
_RMA = struct.Struct("<qiii")        # seq, rank, target, wid
_SYNC = struct.Struct("<qiBi")       # seq, rank, kind id, wid

_TAG_LOCAL, _TAG_RMA, _TAG_SYNC = 0, 1, 2
_FLAG_ACCUM, _FLAG_EXCL = 1, 2

#: rolling-chain algorithm flagged in v2 headers
CHAIN_ALGO = "sha256"


def _chain_seed(hlen_raw: bytes, header_bytes: bytes) -> bytes:
    """Chain value 0: binds the chain to this file's exact header."""
    return hashlib.sha256(MAGIC_V2 + hlen_raw + header_bytes).digest()


def _chain_next(prev: bytes, payload: bytes) -> bytes:
    """sha256(prev + payload), without copying the payload into a new
    ``prev + payload`` object first."""
    h = hashlib.sha256(prev)
    h.update(payload)
    return h.digest()


# the writers live in repro.pipeline.writer and the chain tools in
# repro.pipeline.chain: a default analysis loads neither
__getattr__, __dir__ = lazy_exports(__name__, {
    "BinaryTraceWriter": "..writer",
    "make_trace_writer": "..writer",
    "compare_chain": "..chain",
    "trace_chain": "..chain",
})


# -- reading -----------------------------------------------------------------


class TraceReader:
    """Streaming reader of a ``repro-trace-v2`` file.

    Iterating a reader opens the file anew each time, so one reader can
    drive several passes.  Memory use is bounded by
    one chunk.  Any other file — JSON lines included — raises
    :class:`~repro.mpi.errors.TraceFormatError` here.

    ``strict=False`` turns on *salvage* mode: instead of raising on the
    first corrupt or truncated chunk, the reader quarantines it (the
    chunk framing and per-chunk checksum bound the damage), keeps
    iterating the rest of the file, and accounts the loss — afterwards
    :attr:`quarantined_chunks`, :attr:`events_lost` and
    :attr:`truncated` (or :meth:`salvage_report`) say exactly what was
    skipped.  Damage that predates iteration (bad magic, unreadable
    header) still raises: there is nothing to salvage without a header.

    Setting :attr:`tail` to True turns on *tail* mode for traces that
    are still being appended to: an incomplete final frame, a
    short payload, or a missing trailer at end-of-file stops iteration
    cleanly (``tail_pending=True``) instead of raising or flagging
    truncation — the caller polls and re-enters from the last cursor.
    Genuine corruption (a checksum or chain mismatch on a *complete*
    payload) is still reported normally: a torn append grows back, a
    corrupt chunk never does.  :attr:`complete` says whether the last
    iteration reached a valid trailer.
    """

    def __init__(self, path: Union[str, Path], *, strict: bool = True) -> None:
        self.path = Path(path)
        self.strict = strict
        #: treat end-of-file as "in-progress append", not truncation
        self.tail = False
        #: last iteration reached the trailer (the file is finalized)
        self.complete = False
        #: last (tail-mode) iteration stopped at an unfinished tail
        self.tail_pending = False
        #: chunk numbers skipped by salvage mode
        self.quarantined_chunks: List[int] = []
        #: events known lost to quarantined chunks (trailer-reconciled)
        self.events_lost = 0
        #: True when the file ends before its trailer (mid-write crash)
        self.truncated = False
        try:
            with self.path.open("rb") as fh:
                head = fh.read(len(MAGIC_V2))
                if not head:
                    raise TraceFormatError("empty file", path=self.path)
                if head != MAGIC_V2:
                    raise TraceFormatError(
                        f"not a {FORMAT_V2} file (bad magic)", path=self.path)
                self._header = self._read_header(fh)
        except OSError as exc:
            raise TraceFormatError(f"cannot read trace: {exc}",
                                   path=self.path) from exc
        self.nranks = self._header["nranks"]

    def _read_header(self, fh) -> dict:
        raw = fh.read(_U32.size)
        if len(raw) < _U32.size:
            raise TraceFormatError("truncated v2 header length", path=self.path)
        (length,) = _U32.unpack(raw)
        blob = fh.read(length)
        if len(blob) < length:
            raise TraceFormatError("truncated v2 header", path=self.path)
        try:
            header = json.loads(blob)
        except json.JSONDecodeError as exc:
            raise TraceFormatError(f"corrupt v2 header: {exc}",
                                   path=self.path) from exc
        if header.get("format") != FORMAT_V2:
            raise TraceFormatError(
                f"not a {FORMAT_V2} file (header says "
                f"{header.get('format')!r})", path=self.path,
            )
        if not isinstance(header.get("nranks"), int):
            raise TraceFormatError("v2 header missing 'nranks'", path=self.path)
        # every frame carries its checksum and chain digest (_FRAME)
        for key, want in (("chunk_crc32", True), ("chunk_chain", CHAIN_ALGO)):
            if header.get(key) != want:
                raise TraceFormatError(
                    f"v2 header missing {key!r} = {json.dumps(want)}",
                    path=self.path)
        try:
            header["access_table"] = [
                AccessType[n] for n in header["enums"]["access"]
            ]
            header["sync_table"] = [
                SyncKind(v) for v in header["enums"]["sync"]
            ]
            header["region_table"] = [
                RegionKind(v) for v in header["enums"]["region"]
            ]
        except (KeyError, ValueError) as exc:
            raise TraceFormatError(f"bad v2 enum tables: {exc!r}",
                                   path=self.path) from exc
        # the seed binds cursors' chain values to this exact header
        header["chain_seed"] = _chain_seed(raw, blob)
        header["data_start"] = len(MAGIC_V2) + _U32.size + length
        return header

    # -- iteration -----------------------------------------------------------

    def __iter__(self) -> Iterator[TraceEvent]:
        from .decode import chunks

        self._begin(None)
        return (event for events, _cursor in chunks(self, None)
                for event in events)

    def wire_stream(self, start: Optional[dict] = None) -> "WireStream":
        """Raw chunk records for the flat core's fused decode.

        The wire path feeds a detector record by record, so it cannot
        quarantine a chunk after the fact: a salvage consumer validates
        each chunk with :meth:`WireStream.decode_or_quarantine` before
        ingesting it.  ``start`` resumes from an :meth:`iter_chunks`
        cursor.
        """
        self._begin(start)
        return WireStream(self, start)

    def salvage_report(self) -> dict:
        """What the last (salvage-mode) iteration had to skip.

        When the iteration was resumed from a checkpoint cursor
        (:meth:`iter_chunks` with ``start``), the counts include the
        losses recorded before the checkpoint — resume must not launder
        away salvage accounting.
        """
        return {
            "quarantined_chunks": list(self.quarantined_chunks),
            "events_lost": self.events_lost,
            "truncated": self.truncated,
        }

    # -- chunk-wise iteration (checkpoint/resume) -----------------------------

    def iter_chunks(self, start: Optional[dict] = None
                    ) -> Iterator[Tuple[List[TraceEvent], dict]]:
        """Iterate ``(events, cursor)`` one fully-decoded chunk at a time.

        ``cursor`` resumes iteration *after* that chunk: pass it back as
        ``start`` (possibly in another process, days later) and the
        remaining chunks decode exactly as they would have — the cursor
        carries the incremental string table, the cumulative event
        count, the rolling chain value and the salvage accounting, so
        loss statistics survive the hop.  Cursors are plain picklable
        dicts; they are valid against the same trace file or any
        append-only extension of it (checkpoint metadata pins identity
        by the chain value, or by file size once a salvage read has
        dropped the chain).  Decoding lives in :mod:`repro.pipeline.decode`.
        """
        from .decode import chunks

        self._begin(start)
        return chunks(self, start)

    def _begin(self, start: Optional[dict]) -> None:
        """Reset per-pass state, or adopt a resume cursor's."""
        self.complete = False
        self.tail_pending = False
        if start is not None:
            if start.get("kind") != "v2":
                raise TraceFormatError(
                    f"resume cursor kind {start.get('kind')!r} is not a "
                    f"{FORMAT_V2} cursor", path=self.path)
            salvage = start.get("salvage") or {}
            self.quarantined_chunks = list(
                salvage.get("quarantined_chunks", []))
            self.events_lost = int(salvage.get("events_lost", 0))
            self.truncated = bool(salvage.get("truncated", False))
        else:
            self.quarantined_chunks = []
            self.events_lost = 0
            self.truncated = False

    def _salvage_state(self, claimed_lost: int) -> dict:
        return {
            "quarantined_chunks": list(self.quarantined_chunks),
            "events_lost": claimed_lost,
            "truncated": self.truncated,
        }

    def total_events(self) -> Optional[int]:
        """Total events the trace claims to hold, or None when unknowable.

        Answered from the 12-byte trailer without scanning the body
        (``analyzed_fraction`` needs this on multi-GB traces); a
        missing/torn trailer returns None.
        """
        trailer = len(_END_TAG) + _U64.size
        try:
            with self.path.open("rb") as fh:
                fh.seek(0, 2)
                size = fh.tell()
                if size < trailer:
                    return None
                fh.seek(size - trailer)
                tail = fh.read(trailer)
        except OSError:
            return None
        if not tail.startswith(_END_TAG):
            return None
        return _U64.unpack(tail[len(_END_TAG):])[0]

    def _bad(self, message: str) -> None:
        """Raise in strict mode; in salvage mode the caller quarantines."""
        if self.strict:
            raise TraceFormatError(message, path=self.path)

    def _resync(self, fh, from_pos: int) -> bool:
        """Scan forward for the next frame tag and seek the file to it."""
        fh.seek(from_pos)
        overlap = b""
        while True:
            block = fh.read(1 << 16)
            if not block:
                return False
            hay = overlap + block
            hits = [i for i in (hay.find(_CHUNK_TAG), hay.find(_END_TAG))
                    if i != -1]
            if hits:
                fh.seek(fh.tell() - len(hay) + min(hits))
                return True
            overlap = hay[-3:]


class WireStream:
    """One pass over a trace's chunk frames — the only framing walker.

    Iterating yields ``(payload, offset, nevents)`` triples: ``payload``
    is a checksum- and chain-verified chunk body, ``offset`` points just
    past the chunk's string-table prefix (already folded into
    :attr:`strings`), and ``nevents`` is the frame's event count.  The
    owning :class:`TraceReader`'s mode applies: strict readers raise on
    any damage, salvage readers quarantine and account it, tail-mode
    readers stop cleanly at an unfinished append.  After each chunk
    :meth:`cursor` is the crash-consistent resume point
    (:meth:`TraceReader.iter_chunks` cursors, same shape).

    Consumers turn records into what they need: the flat core ingests
    them as interned tuples (``FlatDetector.ingest_wire``, no event
    objects; a salvage read decodes each chunk first, so a chunk whose
    records fail is quarantined before the core sees any of them),
    everything else decodes them into
    :class:`~repro.mpi.trace.TraceEvent` lists
    (:func:`repro.pipeline.decode.decode`, through
    :meth:`decode_or_quarantine` or the reader's iterators).  A
    timeline fed from records holds record-byte tuples, formatted by
    :meth:`timeline_event` only when a snapshot or forensics view needs
    them.

    The stream also carries the header enum tables and two decode caches
    (wire site/accum ids → detector interned ids).  The caches are sound
    per stream because the wire string table is append-only: a given
    ``(file id, line)`` or accum-op id means the same string for the
    life of the stream.
    """

    def __init__(self, reader: TraceReader,
                 start: Optional[dict] = None) -> None:
        header = reader._header
        self.reader = reader
        self.path = reader.path
        self.nranks: int = header["nranks"]
        self.access_table: List[AccessType] = header["access_table"]
        self.sync_table: List[SyncKind] = header["sync_table"]
        self.region_table: List[RegionKind] = header["region_table"]
        if start is not None:
            #: shared wire string table, grown chunk by chunk (append-only)
            self.strings: List[str] = list(start["strings"])
            #: events in the chunks passed so far (the cursor count)
            self.events: int = start["events_applied"]
            #: number of the last chunk frame read (quarantined included)
            self.chunk: int = start["chunk"]
            #: file offset just past the last chunk read
            self.pos: int = start["pos"]
            chain = start.get("chain")
            self.chain: Optional[bytes] = (bytes.fromhex(chain) if chain
                                           else None)
            self._claimed_lost = reader.events_lost
        else:
            self.strings = []
            self.events = 0
            self.chunk = 0
            self.pos = header["data_start"]
            self.chain = header["chain_seed"]
            self._claimed_lost = 0
        #: (wire file id << 32 | line) -> interned SITES id
        self.site_ids: Dict[int, int] = {}
        #: wire accum-op string id -> interned ACCUMS id
        self.accum_ids: Dict[int, int] = {}
        #: (wire file id << 32 | line) -> shared DebugInfo (decode)
        self._debug: Dict[int, DebugInfo] = {}

    # -- framing -------------------------------------------------------------

    def __iter__(self) -> Iterator[Tuple[bytes, int, int]]:
        reader = self.reader
        with self.path.open("rb") as fh:
            fh.seek(self.pos)
            while True:
                tag_pos = fh.tell()
                tag = fh.read(len(_CHUNK_TAG))
                if tag == _CHUNK_TAG:
                    self.chunk += 1
                    chunk_no = self.chunk
                    raw = fh.read(_FRAME.size)
                    if len(raw) < _FRAME.size:
                        if reader.tail:
                            reader.tail_pending = True
                            return
                        reader._bad(f"truncated chunk {chunk_no} frame")
                        reader.quarantined_chunks.append(chunk_no)
                        reader.truncated = True
                        break
                    nbytes, nevents, crc, stored = _FRAME.unpack(raw)
                    if not reader.strict and nbytes > (1 << 30):
                        # a frame this large is corruption, not data
                        reader.quarantined_chunks.append(chunk_no)
                        self.chain = None
                        if not reader._resync(fh, tag_pos + 1):
                            reader.truncated = True
                            break
                        continue
                    payload = fh.read(nbytes)
                    if len(payload) < nbytes:
                        if reader.tail:
                            reader.tail_pending = True
                            return
                        reader._bad(
                            f"truncated chunk {chunk_no}: expected {nbytes} "
                            f"bytes, got {len(payload)}"
                        )
                        reader.quarantined_chunks.append(chunk_no)
                        self._claimed_lost += nevents
                        reader.truncated = True
                        break
                    if zlib.crc32(payload) != crc:
                        reader._bad(
                            f"chunk {chunk_no}: checksum mismatch "
                            f"(payload corrupt)"
                        )
                        self._lose(nevents)
                        self.chain = None
                        continue
                    if self.chain is not None:
                        self.chain = _chain_next(self.chain, payload)
                        if stored != self.chain:
                            if reader.strict:
                                raise TraceChainMismatch(
                                    f"chunk {chunk_no}: chain mismatch "
                                    f"(trace prefix was rewritten)",
                                    path=self.path, chunk=chunk_no)
                            self._lose(nevents)
                            self.chain = None
                            continue
                    off = self._take_strings(payload, chunk_no)
                    if off is None:
                        self._lose(nevents)
                        continue
                    self.events += nevents
                    self.pos = fh.tell()
                    yield payload, off, nevents
                elif tag == _END_TAG:
                    raw = fh.read(_U64.size)
                    if len(raw) < _U64.size:
                        if reader.tail:
                            reader.tail_pending = True
                            return
                        reader._bad("truncated trailer")
                        reader.truncated = True
                        break
                    (expected,) = _U64.unpack(raw)
                    if expected != self.events:
                        reader._bad(
                            f"event count mismatch: trailer says {expected}, "
                            f"file holds {self.events}"
                        )
                        # the trailer is the authoritative loss count
                        reader.events_lost = max(0, expected - self.events)
                    if fh.read(1):
                        reader._bad("junk after trailer")
                    reader.complete = True
                    return
                elif tag == b"":
                    if reader.tail:
                        reader.tail_pending = True
                        return
                    reader._bad(
                        f"truncated file: no trailer after chunk {self.chunk}"
                    )
                    reader.truncated = True
                    break
                else:
                    if reader.tail and len(tag) < len(_CHUNK_TAG):
                        # a partial tag at EOF is a write in flight
                        reader.tail_pending = True
                        return
                    reader._bad(
                        f"bad chunk tag {tag!r} after chunk {self.chunk}")
                    self.chunk += 1
                    reader.quarantined_chunks.append(self.chunk)
                    self.chain = None
                    if not reader._resync(fh, tag_pos + 1):
                        reader.truncated = True
                        break
                    continue
        # salvage-only exit: the file ended without a (sound) trailer,
        # so the per-frame claims are the best available loss count
        reader.events_lost = self._claimed_lost

    def _take_strings(self, payload: bytes, chunk_no: int) -> Optional[int]:
        """Fold the chunk's new strings into the table; offset past them.

        The table grows all-or-nothing, so a quarantined chunk cannot
        leave it half-grown (later chunks decode against it).  Returns
        None when a salvage reader must quarantine the chunk.
        """
        fresh: List[str] = []
        try:
            (nstrings,) = _U32.unpack_from(payload, 0)
            off = _U32.size
            for _ in range(nstrings):
                (slen,) = _U32.unpack_from(payload, off)
                off += _U32.size
                if off + slen > len(payload):
                    raise ValueError("string runs past the chunk")
                fresh.append(payload[off:off + slen].decode("utf-8"))
                off += slen
        except (struct.error, ValueError) as exc:
            self.reader._bad(f"chunk {chunk_no}: corrupt string table: {exc}")
            return None
        self.strings.extend(fresh)
        return off

    def _lose(self, nevents: int) -> None:
        self.reader.quarantined_chunks.append(self.chunk)
        self._claimed_lost += nevents

    def cursor(self) -> dict:
        """Resume point after the last chunk yielded (a plain dict)."""
        return {
            "kind": "v2",
            "chunk": self.chunk,
            "pos": self.pos,
            "strings": list(self.strings),
            "events_applied": self.events,
            "chain": self.chain.hex() if self.chain is not None else None,
            "salvage": self.reader._salvage_state(self._claimed_lost),
        }

    # -- records -> objects ---------------------------------------------------

    def bad_interval(self, lo: int, hi: int) -> TraceFormatError:
        """The error for an access whose bounds fail ``0 <= lo < hi``,
        the check both decoders make (:mod:`repro.pipeline.decode` and
        the flat core's wire ingestion) — what :class:`Interval`
        refuses."""
        return TraceFormatError(
            f"chunk {self.chunk}: access [{lo}, {hi}) is empty or has a "
            f"negative address", path=self.path)

    def decode_or_quarantine(self, payload: bytes, off: int,
                             nevents: int) -> Optional[List[TraceEvent]]:
        """This chunk's records as trace events
        (:func:`repro.pipeline.decode.decode`), except that a salvage
        reader quarantines a chunk that fails to decode (and gets
        ``None``)."""
        from .decode import decode_or_quarantine

        return decode_or_quarantine(self, payload, off, nevents)

    # -- timeline records -----------------------------------------------------

    def timeline_event(self, rec: tuple, lane: int) -> dict:
        """Format a wire timeline record exactly as its decoded event.

        ``rec`` is ``(seq, kind, rank, wid, fmt, body)`` with ``body``
        the event's record bytes after the tag — what the flat core's
        wire ingestion appends to timeline rings (see
        :mod:`repro.obs.timeline`).  The result is the same dict, key
        order included, that the timeline builds from the decoded
        :class:`~repro.mpi.trace.TraceEvent`, so lanes, forensics views
        and Chrome traces cannot tell which path fed them.
        """
        seq, kind, rank, wid, _, body = rec
        strings = self.strings
        try:
            if kind == "local":
                event = {"seq": seq, "kind": "local", "rank": rank,
                         "wid": -1}
                pos = _LOCAL.size
            else:
                target = _RMA.unpack_from(body, 0)[2]
                event = {"seq": seq, "kind": "rma", "rank": rank,
                         "wid": wid,
                         "op": strings[_U32.unpack_from(body, _RMA.size)[0]],
                         "target": target}
                pos = _RMA.size + _U32.size + _I64.size
                if lane == target:  # the lane's side: the window access
                    pos += 1 + _ACCESS.size + _ACCESS_EXTRA[body[pos] & 3]
            lo, hi, tid, fid, line, origin, _fg = \
                _ACCESS.unpack_from(body, pos + 1)
            event["lo"] = lo
            event["hi"] = hi
            event["type"] = self.access_table[tid].name
            event["file"] = strings[fid]
        except (struct.error, IndexError) as exc:
            raise TraceFormatError(
                f"malformed event record (seq {seq}): {exc}",
                path=self.path) from None
        event["line"] = line
        event["origin"] = origin
        return event


#: bytes of an access record's optional fields, by its two flag bits:
#: a u32 accum-op string id (flag 1) and an i64 exclusive epoch (flag 2)
_ACCESS_EXTRA = (0, _U32.size, _I64.size, _U32.size + _I64.size)
