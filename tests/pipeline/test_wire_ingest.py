"""One ingest path: the flat core reads v2 wire records in every mode.

Serial analysis with a strict reader feeds the flat core raw chunk
records — plain, checkpointed, resumed and followed alike, with the
event timeline on (the default).  The contract is byte identity with
the decoded-event path the same detector takes when the reader has no
wire stream to offer (salvage reads): verdicts, forensics bundles,
timeline lanes, shard statistics and the obs registry (timings aside).
"""

import json
import struct
import zlib

import pytest

from repro import obs
from repro.mpi.errors import TraceFormatError
from repro.mpi.trace_io import load_trace
from repro.pipeline import (BinaryTraceWriter, TraceReader, analyze_trace,
                            record_app)
from repro.pipeline import format as fmt

#: registry-snapshot keys that legitimately differ run to run
_VOLATILE = ("ns", "seconds", "time", "wall", "rss")


def _normalize(d):
    out = {}
    for k, v in d.items():
        if isinstance(v, dict):
            out[k] = _normalize(v)
        elif any(t in k for t in _VOLATILE):
            out[k] = 0
        else:
            out[k] = v
    return out


def _key(res):
    return json.dumps({
        "verdicts": res.verdicts,
        "forensics": res.forensics,
        "timeline": res.timeline,
        "events": res.events_total,
        "shards": [(s.shard, s.events, s.races, s.peak_nodes, s.processed)
                   for s in res.shard_stats],
        "obs": _normalize(res.obs or {}),
    }, sort_keys=True, default=str)


@pytest.fixture(scope="module", params=["minivite", "cfd"])
def v2_trace(request, tmp_path_factory):
    """Small-chunked v2 traces: many chunk boundaries to resume at."""
    path = tmp_path_factory.mktemp("wire") / f"{request.param}.trace"
    if request.param == "minivite":
        recorded = record_app("minivite", nranks=4, size=256,
                              inject_race=True)
    else:
        recorded = record_app("cfd", nranks=4, size=4)
    with BinaryTraceWriter(path, nranks=recorded.nranks,
                           events_per_chunk=300) as writer:
        for event in recorded.trace_log.events:
            writer.write(event)
    return path


def _wire_ingests(monkeypatch):
    """Count chunks the flat core took straight off the wire."""
    from repro.core import FlatDetector

    calls = []
    real = FlatDetector.ingest_wire

    def spy(self, *args, **kwargs):
        calls.append(args[2])
        return real(self, *args, **kwargs)

    monkeypatch.setattr(FlatDetector, "ingest_wire", spy)
    return calls


def test_default_analysis_takes_the_wire_path(v2_trace, monkeypatch):
    calls = _wire_ingests(monkeypatch)
    res = analyze_trace(v2_trace)
    assert res.timeline is not None  # the timeline is on by default
    assert sum(calls) == res.events_total > 0


def test_wire_matches_decoded_events(v2_trace, monkeypatch):
    wire = analyze_trace(v2_trace)
    # withhold the wire stream: the same reader then decodes events
    monkeypatch.setattr(TraceReader, "wire_stream",
                        lambda self, start=None: None)
    decoded = analyze_trace(v2_trace)
    assert _key(wire) == _key(decoded)


def test_checkpointed_run_matches_plain(v2_trace, tmp_path, monkeypatch):
    calls = _wire_ingests(monkeypatch)
    plain = analyze_trace(v2_trace)
    ckpt = analyze_trace(v2_trace, ckpt_dir=tmp_path / "ck", ckpt_every=1)
    assert ckpt.checkpoint["written"] > 1
    assert sum(calls) == 2 * plain.events_total
    assert ckpt.verdicts == plain.verdicts
    assert ckpt.forensics == plain.forensics
    assert ckpt.timeline == plain.timeline


def test_resume_mid_trace_matches_plain(v2_trace, tmp_path, monkeypatch):
    """Stop after a few chunks (memory guard), resume: same result."""
    from repro.pipeline import checkpoint

    plain = analyze_trace(v2_trace)
    ck = tmp_path / "ck"
    reads = iter(range(1000))
    monkeypatch.setattr(checkpoint, "current_rss_mb",
                        lambda: 10_000 if next(reads) >= 3 else 0)
    first = analyze_trace(v2_trace, ckpt_dir=ck, ckpt_every=1,
                          max_rss_mb=100)
    assert first.partial and first.checkpoint["stopped"] == "memory"
    monkeypatch.setattr(checkpoint, "current_rss_mb", lambda: 0)
    with obs.scope():
        resumed = analyze_trace(v2_trace, ckpt_dir=ck, resume=True)
    assert resumed.checkpoint["resumed"][0]["chunks_skipped"] == 4
    assert resumed.events_total == plain.events_total
    assert resumed.verdicts == plain.verdicts
    assert resumed.forensics == plain.forensics
    assert resumed.timeline == plain.timeline


def test_timeline_records_do_not_pin_chunks(v2_trace):
    res = analyze_trace(v2_trace)
    rings = res._timeline_live._lanes.values()
    wire = [rec for ring in rings for rec in ring
            if isinstance(rec[5], bytes)]
    assert wire
    # each record keeps its own event bytes, never the whole payload
    assert max(len(rec[5]) for rec in wire) < 200


def _corrupt_first_access_type(path):
    """Give the one chunk's first local access an out-of-range type id,
    then repair the frame's checksum and stored chain digest.

    Checksum and chain stay valid, so only record decoding can object.
    """
    raw = bytearray(path.read_bytes())
    hlen_at = len(fmt.MAGIC_V2)
    header_end = hlen_at + 4 + struct.unpack_from("<I", raw, hlen_at)[0]
    frame = header_end + len(fmt._CHUNK_TAG)
    nbytes, nevents, _crc, _chain = fmt._FRAME.unpack_from(raw, frame)
    start = frame + fmt._FRAME.size
    assert raw[start + nbytes:][:4] == fmt._END_TAG  # a single chunk
    payload = bytearray(raw[start:start + nbytes])
    (nstrings,) = struct.unpack_from("<I", payload, 0)
    off = 4
    for _ in range(nstrings):
        (slen,) = struct.unpack_from("<I", payload, off)
        off += 4 + slen
    while payload[off] == fmt._TAG_SYNC:
        off += 1 + fmt._SYNC.size
    assert payload[off] == fmt._TAG_LOCAL
    tid = off + 1 + fmt._LOCAL.size + 1 + 16  # tag, seq+rank, flags, lo, hi
    payload[tid] = 200
    raw[start:start + nbytes] = payload
    seed = fmt._chain_seed(bytes(raw[hlen_at:hlen_at + 4]),
                           bytes(raw[hlen_at + 4:header_end]))
    fmt._FRAME.pack_into(raw, frame, nbytes, nevents,
                         zlib.crc32(bytes(payload)),
                         fmt._chain_next(seed, bytes(payload)))
    path.write_bytes(bytes(raw))


def test_malformed_record_is_a_format_error(tmp_path):
    from repro.intervals import AccessType, DebugInfo, Interval, MemoryAccess
    from repro.mpi.memory import RegionInfo, RegionKind
    from repro.mpi.trace import LocalEvent, SyncEvent, SyncKind

    path = tmp_path / "bad.trace"
    access = MemoryAccess(Interval(0, 8), AccessType.LOCAL_WRITE,
                          DebugInfo("a.c", 3), 0, 0, 0)
    with BinaryTraceWriter(path, nranks=1) as writer:
        writer.write(SyncEvent(1, -1, SyncKind.WIN_CREATE, 0))
        writer.write(SyncEvent(2, 0, SyncKind.LOCK_ALL, 0))
        writer.write(LocalEvent(3, 0, access,
                                RegionInfo(RegionKind.WINDOW, True)))
    _corrupt_first_access_type(path)
    with pytest.raises(TraceFormatError, match="chunk 1"):
        analyze_trace(path)
    with pytest.raises(TraceFormatError, match="chunk 1"):
        load_trace(path)


def test_file_dispatch_workers_match_decoded_and_serial(v2_trace):
    """A salvage read of an intact trace decodes events (its reader has
    no wire stream) and still matches the wire path exactly."""
    wire = analyze_trace(v2_trace)
    decoded = analyze_trace(v2_trace, salvage=True)

    def counters(res):
        return {k: v for k, v in res.obs["counters"].items()
                if not k.startswith("pipeline.salvage")}

    assert counters(wire) == counters(decoded)
    assert [s.to_dict() for s in wire.shard_stats] == \
        [s.to_dict() for s in decoded.shard_stats]
    assert wire.verdicts == decoded.verdicts
    assert wire.forensics == decoded.forensics
    assert wire.timeline == decoded.timeline
