"""Trace salvage: damaged files are quarantined precisely, never papered over.

Strict mode (the default) must keep failing loudly — same exception,
file and chunk named.  Salvage mode must recover every intact chunk and
account the loss exactly: recovered + lost == recorded.
"""

import json
import struct

import pytest

from repro.faultinject import (
    chunk_index,
    corrupt_chunk_tag,
    flip_bytes,
    truncate_mid_chunk,
)
from repro.mpi.errors import TraceFormatError
from repro.pipeline import MAGIC_V2, TraceReader, analyze_trace


def _count(path, **kw):
    return sum(1 for _ in TraceReader(path, **kw))


# -- corrupt payload (checksum) -----------------------------------------------


def test_strict_read_raises_naming_file_and_chunk(rechunk, mv_trace):
    path = rechunk(mv_trace)
    flip_bytes(path, chunk=3, seed=7)
    with pytest.raises(TraceFormatError) as excinfo:
        _count(path)
    msg = str(excinfo.value)
    assert path.name in msg
    assert "chunk 3" in msg
    assert "checksum" in msg


def test_salvage_quarantines_exactly_the_flipped_chunk(rechunk, mv_trace):
    path = rechunk(mv_trace)
    index = chunk_index(path)
    total = sum(info.nevents for info in index)
    last = index[-1]  # last chunk: nothing after it to shadow
    flip_bytes(path, chunk=last.chunk, seed=7)

    reader = TraceReader(path, strict=False)
    recovered = sum(1 for _ in reader)
    assert reader.quarantined_chunks == [last.chunk]
    assert reader.events_lost == last.nevents
    assert recovered == total - last.nevents
    assert not reader.truncated
    assert reader.salvage_report() == {
        "quarantined_chunks": [last.chunk],
        "events_lost": last.nevents,
        "truncated": False,
    }


def test_salvage_accounting_is_exact_for_mid_file_damage(rechunk, mv_trace):
    """Recovered + lost == recorded even if quarantine shadows later chunks.

    A corrupt early chunk may have interned strings later chunks refer
    to, so more than one chunk can be lost — but the trailer reconciles
    the count, and nothing is double- or under-counted.
    """
    path = rechunk(mv_trace)
    total = sum(info.nevents for info in chunk_index(path))
    flip_bytes(path, chunk=3, seed=11)

    reader = TraceReader(path, strict=False)
    recovered = sum(1 for _ in reader)
    assert 3 in reader.quarantined_chunks
    assert reader.events_lost >= 1
    assert recovered + reader.events_lost == total


# -- truncation ---------------------------------------------------------------


def test_strict_read_raises_on_truncation(rechunk, mv_trace):
    path = rechunk(mv_trace)
    truncate_mid_chunk(path, chunk=5)
    with pytest.raises(TraceFormatError) as excinfo:
        _count(path)
    assert "truncated" in str(excinfo.value)


def test_salvage_recovers_everything_before_the_cut(rechunk, mv_trace):
    path = rechunk(mv_trace)
    index = chunk_index(path)
    before_cut = sum(info.nevents for info in index if info.chunk < 5)
    truncate_mid_chunk(path, chunk=5)

    reader = TraceReader(path, strict=False)
    recovered = sum(1 for _ in reader)
    assert recovered == before_cut
    assert reader.truncated
    assert 5 in reader.quarantined_chunks
    # no trailer survived the cut, so the loss count is the dead
    # chunk's own frame claim — a floor, not the full tail
    assert reader.events_lost >= index[4].nevents


# -- smashed framing ----------------------------------------------------------


def test_strict_read_raises_on_bad_tag(rechunk, mv_trace):
    path = rechunk(mv_trace)
    corrupt_chunk_tag(path, chunk=4)
    with pytest.raises(TraceFormatError) as excinfo:
        _count(path)
    assert "bad chunk tag" in str(excinfo.value)


def test_salvage_resyncs_past_a_smashed_tag(rechunk, mv_trace):
    path = rechunk(mv_trace)
    total = sum(info.nevents for info in chunk_index(path))
    corrupt_chunk_tag(path, chunk=4)

    reader = TraceReader(path, strict=False)
    recovered = sum(1 for _ in reader)
    assert reader.quarantined_chunks  # at least the smashed chunk
    assert recovered + reader.events_lost == total
    assert recovered >= 1


# -- clean traces and old files -----------------------------------------------


def test_salvage_mode_is_a_noop_on_intact_traces(mv_trace):
    assert _count(mv_trace, strict=False) == _count(mv_trace)
    reader = TraceReader(mv_trace, strict=False)
    list(reader)
    assert reader.salvage_report() == {
        "quarantined_chunks": [], "events_lost": 0, "truncated": False,
    }


def _strip_crc(src, dst):
    """Rewrite a v2 trace in the pre-checksum layout (8-byte frames)."""
    raw = src.read_bytes()
    pos = len(MAGIC_V2)
    (hlen,) = struct.unpack_from("<I", raw, pos)
    header = json.loads(raw[pos + 4:pos + 4 + hlen])
    del header["chunk_crc32"]
    skip = 12 + (32 if header.pop("chunk_chain", None) else 0)
    blob = json.dumps(header).encode("utf-8")
    out = bytearray(MAGIC_V2 + struct.pack("<I", len(blob)) + blob)
    p = pos + 4 + hlen
    while True:
        tag = raw[p:p + 4]
        out += tag
        if tag == b"TEND":
            out += raw[p + 4:p + 12]
            break
        nbytes, nevents, _crc = struct.unpack_from("<III", raw, p + 4)
        out += struct.pack("<II", nbytes, nevents)
        out += raw[p + 4 + skip:p + 4 + skip + nbytes]
        p += 4 + skip + nbytes
    dst.write_bytes(bytes(out))


def test_pre_checksum_files_still_read(mv_trace, tmp_path):
    """No longer: every frame carries its checksum, so a file from
    before the flag is refused, strict or salvaging, by an error naming
    the missing header field."""
    old = tmp_path / "old.trace"
    _strip_crc(mv_trace, old)
    for strict in (True, False):
        with pytest.raises(TraceFormatError, match="chunk_crc32"):
            TraceReader(old, strict=strict)


# -- end to end through the engine --------------------------------------------


def test_salvage_parity_across_execution_modes(rechunk, mv_trace,
                                               tmp_path):
    """Plain, checkpointed and open-reader salvage runs agree on a
    damaged trace."""
    path = rechunk(mv_trace)
    last = chunk_index(path)[-1]
    flip_bytes(path, chunk=last.chunk, seed=3)

    serial = analyze_trace(path, salvage=True)
    ckpt = analyze_trace(path, salvage=True, ckpt_dir=tmp_path / "ck",
                         ckpt_every=1)
    reader = analyze_trace(TraceReader(path, strict=False))

    for result in (serial, ckpt, reader):
        assert result.verdicts == serial.verdicts
        assert result.salvage["quarantined_chunks"] == [last.chunk]
        assert result.salvage["events_lost"] == last.nevents
        assert not result.salvage["truncated"]


def test_strict_engine_still_raises_without_salvage(rechunk, mv_trace):
    path = rechunk(mv_trace)
    flip_bytes(path, chunk=2, seed=3)
    with pytest.raises(TraceFormatError):
        analyze_trace(path)


def test_open_salvage_reader_implies_salvage(rechunk, mv_trace):
    path = rechunk(mv_trace)
    last = chunk_index(path)[-1]
    flip_bytes(path, chunk=last.chunk, seed=3)
    result = analyze_trace(TraceReader(path, strict=False))
    assert result.salvage["quarantined_chunks"] == [last.chunk]
