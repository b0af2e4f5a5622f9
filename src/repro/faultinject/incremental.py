"""Fault injectors for the incremental / live-append analysis paths.

Three failure families matter for ``--follow`` and serve's
prefix-resume, and each gets a deterministic injector:

* **Legitimate growth** — :func:`extend_trace` appends more chunks to a
  finished trace through the real append path
  (:meth:`~repro.pipeline.writer.BinaryTraceWriter.open_append`), so
  the extension is byte-for-byte what a longer recording would have
  produced; :func:`append_mid_analysis` does the same from a background
  thread while an analysis is reading the file, which is the follow
  workflow's racy steady state.
* **Torn growth** — :func:`truncate_tail_mid_append` cuts the file in
  the middle of its newest chunk, the exact artifact of a recorder
  ``kill -9``'d mid-append.  Tail readers must classify it as
  in-progress (wait, don't quarantine); ``open_append`` must drop it
  and rewrite.
* **Rewritten history** — :func:`rewrite_prefix` flips payload bytes in
  an already-analyzed chunk and then *repairs* every frame's checksum
  and stored chain digest.  The result is a perfectly self-consistent
  trace that merely disagrees with its past — undetectable by per-chunk
  checksums, caught only by comparing against a retained chain cursor.
  Resume/follow must refuse it with a divergence error, never blend old
  verdicts with new history.

All randomness is seeded; every chaos run reproduces identical damage.
"""

from __future__ import annotations

import random
import threading
import time
import zlib
from pathlib import Path
from typing import List, Optional, Union

from ..mpi.errors import TraceFormatError
from ..pipeline.format import (_CHUNK_TAG, _FRAME, MAGIC_V2, TraceReader,
                               _chain_next, _chain_seed)
from ..pipeline.writer import BinaryTraceWriter
from .corrupt import _U32, chunk_index

__all__ = [
    "append_mid_analysis",
    "extend_trace",
    "rewrite_prefix",
    "truncate_tail_mid_append",
]


def _decoded_slice(path: Path, fraction: float,
                   events: Optional[int]) -> list:
    """The events to append: a decoded slice of the trace's own prefix.

    Re-appending the trace's opening events keeps the injector
    self-contained (no recorder needed) while exercising exactly the
    append machinery — what the events *mean* is irrelevant to the
    format/resume layers under test, and both the incremental and the
    from-scratch analysis see the same extended bytes either way.
    """
    if events is None and not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must be in (0, 1]")
    reader = TraceReader(path)
    # tail mode: a torn final chunk (the state truncate_tail_mid_append
    # leaves behind) decodes as "complete prefix + pending tail" instead
    # of raising — open_append drops the same torn bytes on reopen
    reader.tail = True
    decoded = list(reader)
    if not decoded:
        raise ValueError(f"{path} decodes to zero events")
    n = events if events is not None else max(1, int(len(decoded) * fraction))
    return decoded[:min(n, len(decoded))]


def extend_trace(
    path: Union[str, Path],
    *,
    fraction: float = 0.1,
    events: Optional[int] = None,
    events_per_chunk: Optional[int] = None,
) -> dict:
    """Grow a finished trace append-only by ~``fraction`` of its events.

    Returns ``{"events_appended", "chunks_before", "chunks_after"}``.
    The extended file is a strict byte superset of the original up to
    the old trailer, so a chain compare against the original reports
    ``relation == "extension"`` and serve admits it for prefix-resume.
    """
    path = Path(path)
    batch = _decoded_slice(path, fraction, events)
    writer = BinaryTraceWriter.open_append(
        path, events_per_chunk=events_per_chunk)
    chunks_before = writer.chunks_written
    try:
        for ev in batch:
            writer.write(ev)
    except BaseException:
        writer.abort()
        raise
    writer.close()
    return {
        "events_appended": len(batch),
        "chunks_before": chunks_before,
        "chunks_after": writer.chunks_written,
    }


def append_mid_analysis(
    path: Union[str, Path],
    *,
    fraction: float = 0.1,
    events: Optional[int] = None,
    events_per_chunk: Optional[int] = None,
    delay_s: float = 0.05,
    pause_s: float = 0.0,
    finalize: bool = True,
) -> threading.Thread:
    """Extend ``path`` from a background thread while it is being read.

    The events are decoded *now* (while the file is quiescent); the
    returned started thread sleeps ``delay_s``, reopens the trace for
    live append, and writes the batch — flushing chunk by chunk with
    ``pause_s`` between chunks so a follow-mode analysis interleaves
    tail retries with real growth.  ``finalize=False`` leaves the file
    trailerless (recorder still running) instead of closing it.  Join
    the thread before asserting on the file.
    """
    path = Path(path)
    batch = _decoded_slice(path, fraction, events)

    def _append() -> None:
        time.sleep(delay_s)
        writer = BinaryTraceWriter.open_append(
            path, events_per_chunk=events_per_chunk)
        try:
            for ev in batch:
                before = writer.chunks_written
                writer.write(ev)
                if pause_s and writer.chunks_written > before:
                    time.sleep(pause_s)
        except BaseException:
            writer.abort()
            raise
        if finalize:
            writer.close()
        else:
            writer.abort()  # live abort: leave the trailerless tail

    thread = threading.Thread(target=_append, name="append-mid-analysis",
                              daemon=True)
    thread.start()
    return thread


def truncate_tail_mid_append(
    path: Union[str, Path], *, keep_fraction: float = 0.5
) -> int:
    """Tear the file inside its *newest* chunk (recorder died mid-append).

    Unlike :func:`~repro.faultinject.corrupt.truncate_mid_chunk` (which
    targets an arbitrary chunk to model mid-file loss), this always cuts
    the final chunk — the only place a crash during live append can
    tear.  Tail readers must report the prefix and flag the tail as
    pending; ``open_append`` must truncate it away and keep going.
    Returns the new file size.
    """
    if not 0.0 <= keep_fraction < 1.0:
        raise ValueError("keep_fraction must be in [0, 1)")
    path = Path(path)
    chunks = chunk_index(path)
    if not chunks:
        raise ValueError(f"{path} has no chunks to tear")
    info = chunks[-1]
    cut = info.payload_pos + int(info.nbytes * keep_fraction)
    raw = path.read_bytes()[:cut]
    path.write_bytes(raw)
    return len(raw)


def rewrite_prefix(
    path: Union[str, Path],
    chunk: int = 1,
    *,
    count: int = 4,
    seed: int = 0,
    xor: int = 0xFF,
) -> List[int]:
    """Rewrite history: alter ``chunk`` and repair every self-check.

    Flips ``count`` seeded-random payload bytes of the 1-based
    ``chunk``, then rewrites every frame's crc32 and stored
    rolling-chain digest so the file passes every internal consistency
    check a fresh reader applies.  What it can no longer pass is a
    comparison against externally retained state — a checkpoint cursor
    or a cached chain sidecar — because the chain values from ``chunk``
    onward now commit to different bytes.  This is the adversarial case
    prefix-resume exists to catch: resuming such a file must raise a
    divergence error, never splice old verdicts onto new history.
    Returns the absolute file offsets flipped.
    """
    path = Path(path)
    raw = bytearray(path.read_bytes())
    if raw[:len(MAGIC_V2)] != MAGIC_V2:
        raise TraceFormatError("not a v2 trace (bad magic)", path=path)
    (hlen,) = _U32.unpack_from(raw, len(MAGIC_V2))
    hdr_start = len(MAGIC_V2) + _U32.size
    header_bytes = bytes(raw[hdr_start:hdr_start + hlen])
    chunks = chunk_index(path)
    if not 1 <= chunk <= len(chunks):
        raise ValueError(f"{path} has {len(chunks)} chunks, no chunk {chunk}")
    info = chunks[chunk - 1]
    rng = random.Random(seed)
    offsets = sorted(
        info.payload_pos + o
        for o in rng.sample(range(info.nbytes), min(count, info.nbytes))
    )
    for off in offsets:
        raw[off] ^= xor
    # rewrite every frame from the seed on: the flipped chunk's crc
    # changes, and so does every chain value from it onward (values
    # before it are unchanged by construction)
    chain = _chain_seed(bytes(raw[len(MAGIC_V2):hdr_start]), header_bytes)
    for inf in chunks:
        pl = bytes(raw[inf.payload_pos:inf.payload_pos + inf.nbytes])
        chain = _chain_next(chain, pl)
        _FRAME.pack_into(raw, inf.frame_pos + len(_CHUNK_TAG), inf.nbytes,
                         inf.nevents, zlib.crc32(pl), chain)
    path.write_bytes(bytes(raw))
    return offsets
