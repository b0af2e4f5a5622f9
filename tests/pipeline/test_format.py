"""Round-trip and robustness tests for the repro-trace-v2 binary format."""

import json
import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.intervals import AccessType, DebugInfo, Interval, MemoryAccess
from repro.mpi import TraceFormatError, load_trace, save_trace
from repro.mpi.memory import RegionInfo, RegionKind
from repro.mpi.trace import LocalEvent, RmaEvent, SyncEvent, SyncKind, TraceLog
from repro.pipeline import BinaryTraceWriter, TraceReader, make_trace_writer


def _access(type, *, accum=None, excl=None, file="./a.c", line=7, origin=1):
    return MemoryAccess(Interval(16, 32), type, DebugInfo(file, line),
                        origin, 0, 2, accum, excl)


def _write(path, events, nranks=4, **kwargs):
    with BinaryTraceWriter(path, nranks=nranks, **kwargs) as writer:
        for event in events:
            writer.write(event)
    return path


def exhaustive_events():
    """Every event kind x every enum member x every optional-field shape."""
    events = []
    seq = 0
    for kind in SyncKind:
        seq += 1
        events.append(SyncEvent(seq, -1 if kind is SyncKind.BARRIER else 0,
                                kind, wid=3))
    for region_kind in RegionKind:
        for may_alias in (False, True):
            for acc_type in AccessType:
                for accum in (None, "sum"):
                    for excl in (None, 11):
                        seq += 1
                        events.append(LocalEvent(
                            seq, 2, _access(acc_type, accum=accum, excl=excl),
                            RegionInfo(region_kind, may_alias),
                        ))
    for op in ("put", "get", "accumulate", "get_accumulate"):
        for okind in RegionKind:
            for tkind in RegionKind:
                seq += 1
                events.append(RmaEvent(
                    seq, 0, op, 3, 1,
                    _access(AccessType.RMA_READ),
                    _access(AccessType.RMA_WRITE, accum="prod", excl=5),
                    RegionInfo(okind, True), RegionInfo(tkind, False),
                    nbytes=64,
                ))
    return events


class TestBinaryRoundtrip:
    def test_exhaustive_events_roundtrip(self, tmp_path):
        events = exhaustive_events()
        path = _write(tmp_path / "t.bin", events, nranks=5)
        reader = TraceReader(path)
        assert reader.nranks == 5
        assert list(reader) == events

    def test_reader_is_reiterable(self, tmp_path):
        events = exhaustive_events()
        reader = TraceReader(_write(tmp_path / "t.bin", events))
        assert list(reader) == list(reader)

    def test_small_chunks_roundtrip(self, tmp_path):
        """Chunk boundaries land mid-stream: string table must carry over."""
        events = exhaustive_events()
        path = _write(tmp_path / "t.bin", events, events_per_chunk=3)
        assert list(TraceReader(path)) == events

    def test_empty_trace(self, tmp_path):
        path = _write(tmp_path / "t.bin", [])
        reader = TraceReader(path)
        assert list(reader) == []

    def test_save_load_binary(self, tmp_path):
        log = TraceLog()
        log.events = exhaustive_events()
        path = tmp_path / "t.bin"
        save_trace(log, path, nranks=4)
        loaded = load_trace(path)
        assert loaded.log.events == log.events
        assert loaded.nranks == 4

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            make_trace_writer(tmp_path / "t", nranks=1, format="xml")


ACCESSES = st.builds(
    MemoryAccess,
    st.builds(Interval, st.integers(0, 100), st.integers(101, 2**40)),
    st.sampled_from(list(AccessType)),
    st.builds(DebugInfo, st.text(max_size=12), st.integers(0, 10_000)),
    st.integers(0, 63),
    st.just(0),
    st.integers(-1, 50),
    st.one_of(st.none(), st.sampled_from(["sum", "prod", "max"])),
    st.one_of(st.none(), st.integers(-2**40, 2**40)),
)
REGIONS = st.builds(RegionInfo, st.sampled_from(list(RegionKind)),
                    st.booleans())
EVENTS = st.one_of(
    st.builds(LocalEvent, st.integers(0, 2**50), st.integers(0, 63),
              ACCESSES, REGIONS),
    st.builds(RmaEvent, st.integers(0, 2**50), st.integers(0, 63),
              st.sampled_from(["put", "get", "accumulate"]),
              st.integers(0, 63), st.integers(-1, 8),
              ACCESSES, ACCESSES, REGIONS, REGIONS, st.integers(0, 2**40)),
    st.builds(SyncEvent, st.integers(0, 2**50), st.integers(-1, 63),
              st.sampled_from(list(SyncKind)), st.integers(-1, 8)),
)


class TestPropertyRoundtrip:
    @given(st.lists(EVENTS, max_size=40), st.integers(1, 9))
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_arbitrary_events_roundtrip(self, tmp_path, events, chunk):
        path = _write(tmp_path / "t.bin", events, events_per_chunk=chunk)
        assert list(TraceReader(path)) == events
        path.unlink()

    @given(st.lists(EVENTS, min_size=1, max_size=25))
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_truncation_always_detected(self, tmp_path, events):
        """Cutting any suffix off a v2 file must raise, never mis-parse."""
        path = _write(tmp_path / "t.bin", events, events_per_chunk=4)
        raw = path.read_bytes()
        cut = path.with_suffix(".cut")
        # drop the trailer, half a chunk, half the header
        for upto in (len(raw) - 9, len(raw) // 2, 6):
            cut.write_bytes(raw[:max(0, upto)])
            with pytest.raises(TraceFormatError):
                list(TraceReader(cut))
        path.unlink()
        cut.unlink()


def _drop_header_key(path, key):
    """Rewrite a trace's JSON header without ``key`` (length fixed up)."""
    raw = path.read_bytes()
    (hlen,) = struct.unpack_from("<I", raw, 8)
    header = json.loads(raw[12:12 + hlen])
    del header[key]
    blob = json.dumps(header).encode()
    path.write_bytes(raw[:8] + struct.pack("<I", len(blob)) + blob
                     + raw[12 + hlen:])


class TestCorruptInput:
    def test_json_lines_refused(self, tmp_path):
        """The retired v1 JSON-lines format is not a trace any more."""
        path = tmp_path / "t.json"
        path.write_text(
            json.dumps({"format": "repro-trace-v1", "nranks": 2}) + "\n"
            + json.dumps({"ev": "sync", "seq": 1, "rank": -1,
                          "kind": "barrier", "wid": -1}) + "\n")
        with pytest.raises(TraceFormatError) as err:
            TraceReader(path)
        assert "repro-trace-v2" in str(err.value)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize("key", ["chunk_crc32", "chunk_chain"])
    def test_header_without_frame_field_refused(self, tmp_path, key):
        path = _write(tmp_path / "t.bin", exhaustive_events()[:5])
        _drop_header_key(path, key)
        with pytest.raises(TraceFormatError) as err:
            TraceReader(path)
        assert key in str(err.value)

    def test_not_a_trace(self, tmp_path):
        path = tmp_path / "junk"
        path.write_bytes(b"\x7fELF not a trace at all")
        with pytest.raises(TraceFormatError) as err:
            TraceReader(path)
        assert str(path) in str(err.value)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty"
        path.write_bytes(b"")
        with pytest.raises(TraceFormatError):
            TraceReader(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(TraceFormatError):
            TraceReader(tmp_path / "nope")

    def test_error_is_valueerror(self, tmp_path):
        """Compat: pre-existing callers catch ValueError."""
        path = tmp_path / "junk"
        path.write_text('{"format": "something-else"}\n')
        with pytest.raises(ValueError):
            load_trace(path)
        with pytest.raises(TraceFormatError):
            load_trace(path)

    def test_junk_after_trailer(self, tmp_path):
        path = _write(tmp_path / "t.bin", exhaustive_events()[:5])
        path.write_bytes(path.read_bytes() + b"extra")
        with pytest.raises(TraceFormatError) as err:
            list(TraceReader(path))
        assert "junk" in str(err.value)

    def test_corrupt_chunk_tag(self, tmp_path):
        path = _write(tmp_path / "t.bin", exhaustive_events()[:5])
        raw = bytearray(path.read_bytes())
        idx = raw.find(b"CHNK")
        raw[idx:idx + 4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(TraceFormatError):
            list(TraceReader(path))

    def test_trailer_count_mismatch(self, tmp_path):
        path = _write(tmp_path / "t.bin", exhaustive_events()[:5])
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF  # flip the high byte of the u64 event count
        path.write_bytes(bytes(raw))
        with pytest.raises(TraceFormatError) as err:
            list(TraceReader(path))
        assert "mismatch" in str(err.value)
