"""Deterministic on-disk trace corruptors, framed like the reader reads.

These walk the ``repro-trace-v2`` chunk framing of a *written* trace
(the frame layout of :mod:`repro.pipeline.format`) and damage it
surgically: flip payload bytes of one chunk (caught by
the chunk checksum), truncate the file mid-chunk (a recorder that died
with the trailer unwritten), or smash a frame tag (exercises the
salvage resync scan).  All randomness is seeded, so every chaos test
reproduces byte-identical damage.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import List, Union

from ..mpi.errors import TraceFormatError
from ..pipeline.format import _CHUNK_TAG, _END_TAG, _FRAME, MAGIC_V2

__all__ = [
    "ChunkInfo",
    "chunk_index",
    "corrupt_chunk_tag",
    "corrupt_checkpoint",
    "corrupt_journal_record",
    "flip_bytes",
    "truncate_mid_chunk",
]

_U32 = struct.Struct("<I")


@dataclass(frozen=True)
class ChunkInfo:
    """Where one chunk of a v2 trace lives on disk."""

    chunk: int        #: 1-based chunk number, as the reader counts them
    frame_pos: int    #: offset of the b"CHNK" tag
    payload_pos: int  #: offset of the first payload byte
    nbytes: int       #: payload length
    nevents: int      #: events the frame claims


def chunk_index(path: Union[str, Path]) -> List[ChunkInfo]:
    """Walk a v2 file's framing and index its chunks."""
    path = Path(path)
    raw = path.read_bytes()
    if raw[:len(MAGIC_V2)] != MAGIC_V2:
        raise TraceFormatError("not a v2 trace (bad magic)", path=path)
    pos = len(MAGIC_V2)
    (hlen,) = _U32.unpack_from(raw, pos)
    pos += _U32.size + hlen
    head = len(_CHUNK_TAG) + _FRAME.size
    chunks: List[ChunkInfo] = []
    while pos + len(_CHUNK_TAG) <= len(raw):
        tag = raw[pos:pos + len(_CHUNK_TAG)]
        if tag == _END_TAG:
            break
        if tag != _CHUNK_TAG:
            raise TraceFormatError(
                f"bad chunk tag {tag!r} at offset {pos}", path=path
            )
        nbytes, nevents, _crc, _chain = _FRAME.unpack_from(
            raw, pos + len(_CHUNK_TAG))
        chunks.append(ChunkInfo(
            chunk=len(chunks) + 1,
            frame_pos=pos,
            payload_pos=pos + head,
            nbytes=nbytes,
            nevents=nevents,
        ))
        pos += head + nbytes
    return chunks


def _chunk(path: Path, chunk: int) -> ChunkInfo:
    chunks = chunk_index(path)
    for info in chunks:
        if info.chunk == chunk:
            return info
    raise ValueError(f"{path} has {len(chunks)} chunks, no chunk {chunk}")


def flip_bytes(
    path: Union[str, Path],
    chunk: int,
    *,
    count: int = 4,
    seed: int = 0,
    xor: int = 0xFF,
) -> List[int]:
    """XOR ``count`` seeded-random payload bytes of ``chunk`` in place.

    The chunk checksum no longer matches afterwards, so a strict read
    raises and a salvage read quarantines exactly this chunk.  Returns
    the absolute file offsets flipped.
    """
    path = Path(path)
    info = _chunk(path, chunk)
    rng = random.Random(seed)
    offsets = sorted(
        info.payload_pos + o
        for o in rng.sample(range(info.nbytes), min(count, info.nbytes))
    )
    raw = bytearray(path.read_bytes())
    for off in offsets:
        raw[off] ^= xor
    path.write_bytes(bytes(raw))
    return offsets


def truncate_mid_chunk(
    path: Union[str, Path], chunk: int, *, keep_fraction: float = 0.5
) -> int:
    """Cut the file inside ``chunk``'s payload, trailer and all.

    Models a recorder killed mid-write (on a pre-atomic-finalize file
    layout).  Returns the new file size.
    """
    if not 0.0 <= keep_fraction < 1.0:
        raise ValueError("keep_fraction must be in [0, 1)")
    path = Path(path)
    info = _chunk(path, chunk)
    cut = info.payload_pos + int(info.nbytes * keep_fraction)
    raw = path.read_bytes()[:cut]
    path.write_bytes(raw)
    return len(raw)


def corrupt_checkpoint(
    path: Union[str, Path],
    *,
    mode: str = "flip",
    count: int = 4,
    seed: int = 0,
    keep_fraction: float = 0.5,
) -> Path:
    """Damage one ``repro-ckpt-v1`` file in place, deterministically.

    ``mode="flip"`` XORs ``count`` seeded-random payload bytes (the crc
    catches it on recovery); ``mode="truncate"`` cuts the file mid-
    payload (a checkpoint torn by a crash on a filesystem without
    atomic-rename semantics).  Either way recovery must quarantine the
    file and fall back to the previous generation — never silently
    restart from scratch.  Returns the path.
    """
    path = Path(path)
    raw = bytearray(path.read_bytes())
    # payload starts after magic(8) + u32 hlen + header + u32 len + u32 crc
    (hlen,) = _U32.unpack_from(raw, 8)
    payload_pos = 8 + 4 + hlen + 8
    nbytes = len(raw) - payload_pos
    if nbytes <= 0:
        raise ValueError(f"{path} has no checkpoint payload to corrupt")
    if mode == "flip":
        rng = random.Random(seed)
        for off in rng.sample(range(nbytes), min(count, nbytes)):
            raw[payload_pos + off] ^= 0xFF
        path.write_bytes(bytes(raw))
    elif mode == "truncate":
        cut = payload_pos + int(nbytes * keep_fraction)
        path.write_bytes(bytes(raw[:cut]))
    else:
        raise ValueError(f"unknown corruption mode {mode!r}")
    return path


def corrupt_journal_record(
    path: Union[str, Path],
    record: int = 1,
    *,
    mode: str = "flip",
    count: int = 4,
    seed: int = 0,
) -> int:
    """Damage one record of a ``repro-jobs-v1`` daemon journal in place.

    ``record`` is 1-based.  ``mode="flip"`` XORs ``count`` seeded-random
    payload bytes (the record crc catches it on replay, which must
    quarantine the damaged suffix and keep the valid prefix);
    ``mode="truncate"`` cuts the file mid-record (the torn tail a crash
    during append leaves behind — replay trims it silently).  Returns
    the file offset of the damaged record's frame.
    """
    from ..serve.journal import JOURNAL_MAGIC

    path = Path(path)
    raw = bytearray(path.read_bytes())
    if raw[:len(JOURNAL_MAGIC)] != JOURNAL_MAGIC:
        raise ValueError(f"{path} is not a repro-jobs-v1 journal")
    pos = len(JOURNAL_MAGIC)
    (hlen,) = _U32.unpack_from(raw, pos)
    pos += 4 + hlen
    seen = 0
    while pos + 8 <= len(raw):
        (nbytes,) = _U32.unpack_from(raw, pos)
        payload_pos = pos + 8
        if payload_pos + nbytes > len(raw):
            break
        seen += 1
        if seen == record:
            if mode == "flip":
                rng = random.Random(seed)
                for off in rng.sample(range(nbytes), min(count, nbytes)):
                    raw[payload_pos + off] ^= 0xFF
                path.write_bytes(bytes(raw))
            elif mode == "truncate":
                path.write_bytes(bytes(raw[:payload_pos + nbytes // 2]))
            else:
                raise ValueError(f"unknown corruption mode {mode!r}")
            return pos
        pos = payload_pos + nbytes
    raise ValueError(f"{path} has {seen} records, no record {record}")


def corrupt_chunk_tag(path: Union[str, Path], chunk: int) -> int:
    """Overwrite ``chunk``'s b"CHNK" tag with junk (breaks the framing).

    Strict reads die on the bad tag; salvage reads lose the chunk and
    resynchronize on the next frame tag.  Returns the tag's offset.
    """
    path = Path(path)
    info = _chunk(path, chunk)
    raw = bytearray(path.read_bytes())
    raw[info.frame_pos:info.frame_pos + len(_CHUNK_TAG)] = b"JUNK"
    path.write_bytes(bytes(raw))
    return info.frame_pos
