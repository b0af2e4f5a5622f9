"""The per-chunk rolling hash chain: computation, storage, append, tail.

The chain is the format-layer foundation of incremental re-analysis:
equal chain value at chunk k ⇒ byte-identical first k chunks, so a
checkpoint cursor carrying its chain value can prove "this trace is an
append-only extension of what I analyzed" without re-reading the
prefix.  These tests pin the properties everything upstream relies on:

* determinism and prefix-sensitivity of :func:`trace_chain`,
* the four :func:`compare_chain` relations,
* ``open_append`` producing byte-for-byte append-only extensions (and
  refusing corrupt or rewritten inputs),
* stored-digest verification (:class:`TraceChainMismatch` on a spliced
  prefix), in strict reads and :func:`trace_chain` alike,
* tail-mode reader classification of in-progress vs complete files.
"""

import hashlib
import struct

import pytest

from repro.intervals import AccessType, DebugInfo, Interval, MemoryAccess
from repro.mpi.errors import TraceChainMismatch, TraceFormatError
from repro.mpi.memory import RegionInfo, RegionKind
from repro.mpi.trace import LocalEvent
from repro.pipeline import (
    BinaryTraceWriter,
    TraceReader,
    compare_chain,
    trace_chain,
)
from repro.pipeline.format import MAGIC_V2


def _event(seq, *, rank=0, line=1):
    access = MemoryAccess(Interval(seq * 8, seq * 8 + 8),
                          AccessType.LOCAL_READ,
                          DebugInfo("./chain.c", line), rank, 0, 1, None, None)
    return LocalEvent(seq, rank, access, RegionInfo(RegionKind.HEAP, True))


def _write(path, n, *, per_chunk=10):
    with BinaryTraceWriter(path, nranks=4,
                           events_per_chunk=per_chunk) as writer:
        for seq in range(1, n + 1):
            writer.write(_event(seq))
    return path


def _append(path, seqs, *, finalize=True):
    writer = BinaryTraceWriter.open_append(path)
    for seq in seqs:
        writer.write(_event(seq))
    if finalize:
        writer.close()
    else:
        writer.abort()
    return writer


class TestTraceChain:
    def test_deterministic_and_sized(self, tmp_path):
        path = _write(tmp_path / "t.trace", 35)
        a, b = trace_chain(path), trace_chain(path)
        assert a == b
        assert a["algo"] == "sha256"
        assert len(a["chunks"]) == 4  # 35 events / 10 per chunk
        assert a["complete"]
        assert a["events"][-1] == 35

    def test_matches_reference_formula(self, tmp_path):
        """Each value is sha256(previous value + chunk payload), seeded
        with sha256(magic + u32 header length + header), recomputed here
        from the file bytes alone."""
        path = _write(tmp_path / "t.trace", 35)
        raw = path.read_bytes()
        (hlen,) = struct.unpack_from("<I", raw, len(MAGIC_V2))
        pos = len(MAGIC_V2) + 4 + hlen
        prev = hashlib.sha256(raw[:pos]).digest()
        expect = []
        while raw[pos:pos + 4] == b"CHNK":
            (nbytes,) = struct.unpack_from("<I", raw, pos + 4)
            pos += 4 + 12 + 32  # tag, size/count/crc, stored digest
            prev = hashlib.sha256(prev + raw[pos:pos + nbytes]).digest()
            assert raw[pos - 32:pos] == prev  # the stored digest agrees
            expect.append(prev.hex())
            pos += nbytes
        assert raw[pos:pos + 4] == b"TEND" and len(expect) == 4
        assert trace_chain(path)["chunks"] == expect

    def test_upto_prefix(self, tmp_path):
        path = _write(tmp_path / "t.trace", 50)
        full = trace_chain(path)
        head = trace_chain(path, upto=2)
        assert head["chunks"] == full["chunks"][:2]
        assert not head["complete"]

    def test_content_sensitivity(self, tmp_path):
        a = trace_chain(_write(tmp_path / "a.trace", 30))
        b_path = tmp_path / "b.trace"
        with BinaryTraceWriter(b_path, nranks=4,
                               events_per_chunk=10) as writer:
            for seq in range(1, 31):
                writer.write(_event(seq, line=99 if seq == 30 else 1))
        b = trace_chain(b_path)
        assert a["chunks"][:2] == b["chunks"][:2]
        assert a["chunks"][2] != b["chunks"][2]

    def test_rejects_non_v2(self, tmp_path):
        path = tmp_path / "junk.trace"
        path.write_bytes(b"not a trace at all")
        with pytest.raises(TraceFormatError):
            trace_chain(path)

    def test_torn_tail_ends_walk(self, tmp_path):
        path = _write(tmp_path / "t.trace", 30)
        whole = trace_chain(path)
        path.write_bytes(path.read_bytes()[:-30])  # tear trailer + tail
        torn = trace_chain(path)
        assert not torn["complete"]
        assert torn["chunks"] == whole["chunks"][:len(torn["chunks"])]


class TestCompareChain:
    def test_identical(self, tmp_path):
        c = trace_chain(_write(tmp_path / "a.trace", 30))
        assert compare_chain(c, c)["relation"] == "identical"

    def test_extension_and_truncated(self, tmp_path):
        path = _write(tmp_path / "a.trace", 30)
        old = trace_chain(path)
        _append(path, range(31, 51))
        new = trace_chain(path)
        assert compare_chain(old, new) == {
            "relation": "extension", "common": 3, "diverged_at": None}
        assert compare_chain(new, old)["relation"] == "truncated"

    def test_diverged_names_first_bad_chunk(self, tmp_path):
        a = trace_chain(_write(tmp_path / "a.trace", 40))
        b_path = _write(tmp_path / "b.trace", 20)
        _append(b_path, range(100, 120))
        b = trace_chain(b_path)
        rel = compare_chain(a, b)
        assert rel["relation"] == "diverged"
        assert rel["common"] == 2
        assert rel["diverged_at"] == 3


class TestOpenAppend:
    def test_extension_is_byte_prefix(self, tmp_path):
        path = _write(tmp_path / "t.trace", 30)
        original = path.read_bytes()
        _append(path, range(31, 46))
        extended = path.read_bytes()
        # everything up to the old trailer is byte-identical
        assert extended[:len(original) - 12].startswith(
            original[:len(original) - 12])
        assert [e.seq for e in TraceReader(path)] == list(range(1, 46))

    def test_appended_equals_straight_through(self, tmp_path):
        grown = _write(tmp_path / "grown.trace", 30)
        _append(grown, range(31, 51))
        straight = _write(tmp_path / "straight.trace", 50)
        assert grown.read_bytes() == straight.read_bytes()

    def test_append_drops_torn_tail(self, tmp_path):
        path = _write(tmp_path / "t.trace", 30)
        clean = trace_chain(path)
        path.write_bytes(path.read_bytes()[:-20])  # torn trailer+chunk
        _append(path, range(21, 51))
        assert trace_chain(path)["chunks"][:2] == clean["chunks"][:2]
        assert trace_chain(path)["complete"]

    def test_append_refuses_corrupt_chunk(self, tmp_path):
        path = _write(tmp_path / "t.trace", 30)
        raw = bytearray(path.read_bytes())
        raw[-40] ^= 0xFF  # payload byte of the last chunk
        path.write_bytes(bytes(raw))
        with pytest.raises(TraceFormatError):
            BinaryTraceWriter.open_append(path)

    def test_append_refuses_spliced_stored_chain(self, tmp_path):
        path = _write(tmp_path / "t.trace", 30)
        raw = bytearray(path.read_bytes())
        # corrupt a stored chain digest without touching the payload:
        # digest sits after CHNK + nbytes + nevents + crc of chunk 1
        (hlen,) = struct.unpack_from("<I", raw, len(MAGIC_V2))
        pos = len(MAGIC_V2) + 4 + hlen
        raw[pos + 16] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(TraceChainMismatch) as exc:
            BinaryTraceWriter.open_append(path)
        assert exc.value.chunk == 1


class TestStoredChainVerification:
    def _smash_digest(self, path, chunk_no):
        raw = bytearray(path.read_bytes())
        (hlen,) = struct.unpack_from("<I", raw, len(MAGIC_V2))
        pos = len(MAGIC_V2) + 4 + hlen
        for k in range(1, chunk_no):
            (nbytes,) = struct.unpack_from("<I", raw, pos + 4)
            pos += 4 + 12 + 32 + nbytes
        raw[pos + 16] ^= 0xFF
        path.write_bytes(bytes(raw))

    def test_strict_read_raises_chain_mismatch(self, tmp_path):
        path = _write(tmp_path / "t.trace", 30)
        self._smash_digest(path, 2)
        with pytest.raises(TraceChainMismatch) as exc:
            list(TraceReader(path))
        assert exc.value.chunk == 2
        assert isinstance(exc.value, TraceFormatError)  # old handlers work

    def test_trace_chain_reports_stored_mismatch(self, tmp_path):
        path = _write(tmp_path / "t.trace", 30)
        self._smash_digest(path, 3)
        with pytest.raises(TraceChainMismatch) as exc:
            trace_chain(path)
        assert exc.value.chunk == 3
        # the chunks before the smashed digest still walk cleanly
        assert len(trace_chain(path, upto=2)["chunks"]) == 2


class TestTailMode:
    def test_complete_file_sets_complete(self, tmp_path):
        path = _write(tmp_path / "t.trace", 30)
        reader = TraceReader(path)
        reader.tail = True
        assert len(list(reader)) == 30
        assert reader.complete and not reader.tail_pending

    def test_torn_tail_is_pending_not_corrupt(self, tmp_path):
        path = _write(tmp_path / "t.trace", 30)
        path.write_bytes(path.read_bytes()[:-25])
        strict = TraceReader(path)
        with pytest.raises(TraceFormatError):
            list(strict)  # a non-tail reader still calls this truncation
        reader = TraceReader(path)
        reader.tail = True
        got = list(reader)
        assert reader.tail_pending and not reader.complete
        assert [e.seq for e in got] == list(range(1, 21))

    def test_live_writer_output_matches_atomic(self, tmp_path):
        atomic = _write(tmp_path / "atomic.trace", 30)
        live = tmp_path / "live.trace"
        writer = BinaryTraceWriter(live, nranks=4, events_per_chunk=10,
                                   live=True)
        for seq in range(1, 31):
            writer.write(_event(seq))
        writer.close()
        assert live.read_bytes() == atomic.read_bytes()

    def test_trailerless_live_file_is_pending(self, tmp_path):
        live = tmp_path / "live.trace"
        writer = BinaryTraceWriter(live, nranks=4, events_per_chunk=10,
                                   live=True)
        for seq in range(1, 21):
            writer.write(_event(seq))
        writer.abort()  # recorder "still running": flushed, no trailer
        reader = TraceReader(live)
        reader.tail = True
        assert len(list(reader)) == 20
        assert reader.tail_pending and not reader.complete

    def test_cursor_carries_chain(self, tmp_path):
        path = _write(tmp_path / "t.trace", 30)
        reader = TraceReader(path)
        cursors = [cur for _, cur in reader.iter_chunks()]
        chain = trace_chain(path)["chunks"]
        assert [c["chain"] for c in cursors] == chain
