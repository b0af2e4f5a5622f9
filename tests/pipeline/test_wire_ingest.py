"""One ingest path: the flat core reads v2 wire records in every mode.

Serial analysis feeds the flat core raw chunk records — plain,
checkpointed, resumed, followed and salvaged alike, with the event
timeline on (the default); a salvage read decodes each chunk first, to
quarantine one that fails.  The contract is byte identity with the
decoded-event feed the same detector takes without its wire ingestion:
verdicts, forensics bundles, timeline lanes, shard statistics and the
obs registry (timings aside).  Both feeds check every analysed access's
bounds where a record enters the core (the door tests below).
"""

import json
import shutil
import struct
import zlib

import pytest

from repro import obs
from repro.cli import main
from repro.core import FlatDetector
from repro.faultinject import chunk_index, flip_bytes
from repro.mpi.errors import TraceFormatError
from repro.mpi.trace_io import load_trace
from repro.pipeline import BinaryTraceWriter, analyze_trace, record_app
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
    calls = []
    real = FlatDetector.ingest_wire

    def spy(self, *args, **kwargs):
        calls.append(args[2])
        return real(self, *args, **kwargs)

    monkeypatch.setattr(FlatDetector, "ingest_wire", spy)
    return calls


def _withhold_wire(monkeypatch):
    """The decoded feed: the flat core without its wire ingestion."""
    monkeypatch.delattr(FlatDetector, "ingest_wire")


def test_default_analysis_takes_the_wire_path(v2_trace, monkeypatch):
    calls = _wire_ingests(monkeypatch)
    res = analyze_trace(v2_trace)
    assert res.timeline is not None  # the timeline is on by default
    assert sum(calls) == res.events_total > 0


def test_wire_matches_decoded_events(v2_trace, monkeypatch):
    wire = analyze_trace(v2_trace)
    _withhold_wire(monkeypatch)
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


def _patch_payload(path, chunk, patch):
    """Apply ``patch`` to one chunk's payload (a bytearray), then repair
    every frame's checksum and stored chain digest.

    Checksum and chain stay valid, so only record decoding can object.
    """
    raw = bytearray(path.read_bytes())
    chunks = chunk_index(path)
    info = chunks[chunk - 1]
    end = info.payload_pos + info.nbytes
    payload = bytearray(raw[info.payload_pos:end])
    patch(payload)
    raw[info.payload_pos:end] = payload
    hdr = len(fmt.MAGIC_V2) + 4
    (hlen,) = struct.unpack_from("<I", raw, len(fmt.MAGIC_V2))
    chain = fmt._chain_seed(bytes(raw[len(fmt.MAGIC_V2):hdr]),
                            bytes(raw[hdr:hdr + hlen]))
    for inf in chunks:
        body = bytes(raw[inf.payload_pos:inf.payload_pos + inf.nbytes])
        chain = fmt._chain_next(chain, body)
        fmt._FRAME.pack_into(raw, inf.frame_pos + len(fmt._CHUNK_TAG),
                             inf.nbytes, inf.nevents, zlib.crc32(body), chain)
    path.write_bytes(bytes(raw))


def _access_end(payload, pos):
    """Offset just past the access record at ``pos`` (its flags byte)."""
    return pos + 1 + fmt._ACCESS.size + fmt._ACCESS_EXTRA[payload[pos] & 3]


def _first_access(payload, tag):
    """Offset of the first ``tag`` event's analysed access: a local's
    one access, an RMA op's target access."""
    (nstrings,) = struct.unpack_from("<I", payload, 0)
    off = 4
    for _ in range(nstrings):
        off += 4 + struct.unpack_from("<I", payload, off)[0]
    while True:
        kind = payload[off]
        off += 1
        if kind == fmt._TAG_SYNC:
            off += fmt._SYNC.size
            continue
        if kind == fmt._TAG_LOCAL:
            pos = off + fmt._LOCAL.size
        else:  # past the op-string id, nbytes and the origin access
            pos = _access_end(payload, off + fmt._RMA.size + 12)
        if kind == tag:
            return pos
        off = _access_end(payload, pos) + (2 if kind == fmt._TAG_LOCAL
                                           else 4)


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
    # the one local access gets an out-of-range type id
    _patch_payload(path, 1, lambda payload: payload.__setitem__(
        _first_access(payload, fmt._TAG_LOCAL) + 1 + 16, 200))
    with pytest.raises(TraceFormatError, match="chunk 1"):
        analyze_trace(path)
    with pytest.raises(TraceFormatError, match="chunk 1"):
        load_trace(path)


def test_file_dispatch_workers_match_decoded_and_serial(v2_trace):
    """A salvage read of an intact trace, which decodes each chunk to
    validate it before ingesting its records, matches the strict wire
    path exactly."""
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


# -- the door: bounds are checked where a record enters the core --------------

#: the chunk given a bad access; it holds six RMA ops
DOOR_CHUNK = 6


@pytest.fixture(scope="module")
def racy200(tmp_path_factory):
    """The racy miniVite recording at 200 events per chunk (12 chunks)."""
    path = tmp_path_factory.mktemp("door") / "mv200.trace"
    recorded = record_app("minivite", nranks=4, size=256, inject_race=True)
    with BinaryTraceWriter(path, nranks=recorded.nranks,
                           events_per_chunk=200) as writer:
        for event in recorded.trace_log.events:
            writer.write(event)
    return path


@pytest.fixture(params=["empty", "negative"])
def bad_bounds(request, racy200, tmp_path):
    """``racy200`` with the target access of chunk 6's first RMA op
    given an empty interval ``[lo, lo)`` or a negative lower bound;
    every checksum and chain digest is repaired."""
    path = tmp_path / f"{request.param}.trace"
    shutil.copy(racy200, path)

    def patch(payload):
        pos = _first_access(payload, fmt._TAG_RMA) + 1
        lo, hi = struct.unpack_from("<qq", payload, pos)
        struct.pack_into("<qq", payload, pos,
                         *((lo, lo) if request.param == "empty"
                           else (-8, hi)))

    _patch_payload(path, DOOR_CHUNK, patch)
    return path


@pytest.fixture
def flipped(racy200, tmp_path):
    """``racy200`` with chunk 6's payload byte-flipped (crc mismatch)."""
    path = tmp_path / "flipped.trace"
    shutil.copy(racy200, path)
    flip_bytes(path, chunk=DOOR_CHUNK)
    return path


@pytest.mark.parametrize("feed", ["wire", "decoded"])
def test_strict_read_refuses_bad_bounds(bad_bounds, feed, monkeypatch,
                                        capsys):
    if feed == "decoded":
        _withhold_wire(monkeypatch)
    with pytest.raises(TraceFormatError, match=f"chunk {DOOR_CHUNK}"):
        analyze_trace(bad_bounds)
    assert main(["analyze", str(bad_bounds)]) == 2
    assert f"chunk {DOOR_CHUNK}" in capsys.readouterr().err


@pytest.mark.parametrize("feed", ["wire", "decoded"])
def test_salvage_quarantines_bad_bounds_like_a_flipped_chunk(
        bad_bounds, flipped, feed, monkeypatch):
    if feed == "decoded":
        _withhold_wire(monkeypatch)
    got = analyze_trace(bad_bounds, salvage=True)
    want = analyze_trace(flipped, salvage=True)
    assert got.salvage["quarantined_chunks"] == [DOOR_CHUNK]
    assert got.salvage == want.salvage
    assert got.verdicts == want.verdicts
    assert got.forensics == want.forensics
    assert got.timeline == want.timeline


def test_salvage_feeds_every_chunk_through_ingest_wire(racy200, flipped,
                                                       monkeypatch):
    calls = _wire_ingests(monkeypatch)
    batches = []
    monkeypatch.setattr(FlatDetector, "ingest_batch",
                        lambda self, *a, **k: batches.append(a))
    for path, lost in ((racy200, 0), (flipped, 1)):
        calls.clear()
        res = analyze_trace(path, salvage=True)
        assert len(res.salvage["quarantined_chunks"]) == lost
        assert len(calls) == len(chunk_index(path)) - lost
        assert sum(calls) == res.events_total > 0
    assert batches == []
