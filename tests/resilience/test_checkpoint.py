"""Checkpoint/resume chaos matrix and unit coverage.

The contract under test: with ``ckpt_dir`` set, any interruption —
hard process death, deadline, memory guard — leaves ``repro-ckpt-v1``
files from which the analysis resumes *mid-trace* (never a re-run from
byte 0) and finishes with verdicts, forensics and merged metrics
byte-identical to a fault-free run.  Corrupt or truncated checkpoints
are quarantined and recovery falls back to the previous generation,
reported in the result — never a silent restart from scratch.

Metric parity deliberately excludes wall-clock spans and the resume
bookkeeping counters (``incremental.*``) — those *should* differ
between a resumed and an uninterrupted run; everything else must not.
"""

import json
import os
import pickle
import struct
import subprocess
import sys
import zlib

import pytest

from repro.detectors import detector_class, detector_names
from repro.faultinject import corrupt_checkpoint, flip_bytes
from repro.pipeline import (
    BinaryTraceWriter,
    CheckpointError,
    CheckpointStore,
    TraceReader,
    analyze_trace,
)
from repro.pipeline.checkpoint import CKPT_MAGIC, CKPT_SCHEMA
from repro.pipeline.shard import dispatch_event

#: counters whose values legitimately differ between resumed and
#: uninterrupted runs — everything else must match exactly
_BOOKKEEPING = ("incremental.",)


def _strip(snapshot):
    out = dict(snapshot)
    out.pop("spans", None)
    out["counters"] = {
        k: v for k, v in out.get("counters", {}).items()
        if not k.startswith(_BOOKKEEPING)
    }
    return out


def assert_parity(result, baseline):
    """Byte-identical verdicts, forensics, metrics and timeline."""
    assert json.dumps(result.verdicts, sort_keys=True) == \
        json.dumps(baseline.verdicts, sort_keys=True)
    assert result.forensics == baseline.forensics
    got, want = _strip(result.obs), _strip(baseline.obs)
    assert got["counters"] == want["counters"]
    assert got.get("gauges") == want.get("gauges")
    assert got.get("histograms") == want.get("histograms")
    assert result.timeline == baseline.timeline


@pytest.fixture(scope="module")
def chunked_trace(tmp_path_factory, mv_trace):
    """The miniVite trace re-chunked to 200 events/chunk (12 chunks)."""
    dst = tmp_path_factory.mktemp("ckpt") / "mv200.trace"
    reader = TraceReader(mv_trace)
    with BinaryTraceWriter(dst, nranks=reader.nranks,
                           events_per_chunk=200) as writer:
        for event in reader:
            writer.write(event)
    return dst


@pytest.fixture(scope="module")
def baseline_serial(chunked_trace):
    return analyze_trace(chunked_trace, detector="our")


# -- unit: state snapshots ----------------------------------------------------


@pytest.mark.parametrize("name", detector_names())
def test_detector_snapshot_roundtrip_mid_replay(name, mv_trace):
    """snapshot() mid-replay + restore() == never-interrupted replay."""
    import pickle

    reader = TraceReader(mv_trace)
    events = list(reader)
    nranks = reader.nranks
    cut = len(events) // 2

    straight = detector_class(name)()
    for event in events:
        dispatch_event(straight, event, nranks)
    straight.finalize()

    first = detector_class(name)()
    for event in events[:cut]:
        dispatch_event(first, event, nranks)
    snap = pickle.loads(pickle.dumps(first.snapshot()))
    resumed = detector_class(name)()
    resumed.restore(snap)
    for event in events[cut:]:
        dispatch_event(resumed, event, nranks)
    resumed.finalize()

    assert len(resumed.reports) == len(straight.reports)
    for a, b in zip(resumed.reports, straight.reports):
        assert (a.rank, a.window, a.stored, a.new) == \
            (b.rank, b.window, b.stored, b.new)
    assert resumed.node_stats() == straight.node_stats()


def test_detector_restore_rejects_wrong_class():
    ours = detector_class("our")()
    other = detector_class("mc")()
    with pytest.raises(ValueError, match="checkpoint is for detector"):
        other.restore(ours.snapshot())


# -- unit: the checkpoint store ----------------------------------------------


def test_store_write_load_prune(tmp_path):
    store = CheckpointStore(tmp_path)
    for seq in range(1, 5):
        store.write({"n": seq}, {"state": seq * 11})
    # keep=2: only the newest two generations survive
    names = sorted(p.name for p in tmp_path.glob("*.ckpt"))
    assert names == ["serial-00000003.ckpt", "serial-00000004.ckpt"]
    header, state = store.load_latest()
    assert header["seq"] == 4 and header["meta"] == {"n": 4}
    assert state == {"state": 44}


@pytest.mark.parametrize("mode", ["flip", "truncate"])
def test_store_quarantines_corrupt_and_falls_back(tmp_path, mode):
    store = CheckpointStore(tmp_path)
    store.write({"n": 1}, {"state": 1})
    store.write({"n": 2}, {"state": 2})
    corrupt_checkpoint(tmp_path / "serial-00000002.ckpt", mode=mode)

    header, state = store.load_latest()
    assert header["seq"] == 1 and state == {"state": 1}
    assert store.quarantined == ["serial-00000002.ckpt.bad"]
    assert (tmp_path / "serial-00000002.ckpt.bad").exists()
    assert not (tmp_path / "serial-00000002.ckpt").exists()


def test_store_empty_lane_and_all_corrupt(tmp_path):
    store = CheckpointStore(tmp_path)
    assert store.load_latest() is None
    store.write({}, {"s": 1})
    corrupt_checkpoint(tmp_path / "serial-00000001.ckpt", mode="truncate",
                       keep_fraction=0.0)
    assert store.load_latest() is None
    assert store.quarantined == ["serial-00000001.ckpt.bad"]


def test_store_expect_mismatch_is_hard_error(tmp_path):
    store = CheckpointStore(tmp_path)
    store.write({"detector": "our", "nranks": 4}, {"s": 1})
    with pytest.raises(CheckpointError, match="does not match"):
        store.load_latest(expect={"detector": "mc", "nranks": 4})


def _one_shot_ckpt(lane, seq, meta, state):
    """A ``repro-ckpt-v1`` file as one ``pickle.dumps`` payload writes it."""
    header = json.dumps({"schema": CKPT_SCHEMA, "lane": lane, "seq": seq,
                         "meta": meta}, sort_keys=True).encode("utf-8")
    payload = pickle.dumps(state, protocol=4)
    u32 = struct.Struct("<I").pack
    return (CKPT_MAGIC + u32(len(header)) + header + u32(len(payload))
            + u32(zlib.crc32(payload)) + payload)


def test_store_streams_the_one_shot_layout(chunked_trace, tmp_path):
    analyze_trace(chunked_trace, detector="our",
                  ckpt_dir=tmp_path / "run", ckpt_every=1)
    header, real = CheckpointStore(tmp_path / "run").load_latest()
    # a real analysis state, many pickle frames, and one object large
    # enough that pickle streams it outside any frame
    state = {"run": real, "rows": list(range(100_000)),
             "blob": bytes(range(256)) * 1024}
    want = _one_shot_ckpt("serial", 1, header["meta"], state)
    path = CheckpointStore(tmp_path / "streamed").write(
        header["meta"], state)
    assert path.read_bytes() == want
    assert not list((tmp_path / "streamed").glob("*.tmp"))

    # a file written the one-shot way still loads
    (tmp_path / "one-shot").mkdir()
    (tmp_path / "one-shot" / "serial-00000001.ckpt").write_bytes(want)
    got_header, got = CheckpointStore(tmp_path / "one-shot").load_latest()
    assert got_header["meta"] == header["meta"]
    assert got["rows"] == state["rows"] and got["blob"] == state["blob"]
    assert got["run"]["cursor"] == real["cursor"]


def test_store_write_failure_leaves_no_tmp(tmp_path):
    store = CheckpointStore(tmp_path)
    with pytest.raises(TypeError):
        store.write({}, {"unpicklable": (i for i in ())})
    assert not list(tmp_path.iterdir())


# -- chaos matrix: serial -----------------------------------------------------


def test_serial_deadline_partial_then_resume(chunked_trace, tmp_path,
                                             baseline_serial):
    ck = tmp_path / "ck"
    partial = analyze_trace(chunked_trace, detector="our",
                            ckpt_dir=ck, ckpt_every=1, deadline_s=1e-6)
    assert partial.partial
    assert partial.checkpoint["stopped"] == "deadline"
    assert 0 < partial.analyzed_fraction < 1

    r = analyze_trace(chunked_trace, detector="our",
                      ckpt_dir=ck, resume=True)
    assert not r.partial and r.analyzed_fraction == 1.0
    assert r.checkpoint["resumed"][0]["events_skipped"] > 0
    assert_parity(r, baseline_serial)


def test_serial_memory_guard_stops_resumably(chunked_trace, tmp_path,
                                             baseline_serial):
    ck = tmp_path / "ck"
    partial = analyze_trace(chunked_trace, detector="our",
                            ckpt_dir=ck, ckpt_every=1, max_rss_mb=1)
    assert partial.partial
    assert partial.checkpoint["stopped"] == "memory"

    r = analyze_trace(chunked_trace, detector="our",
                      ckpt_dir=ck, resume=True)
    assert not r.partial
    assert_parity(r, baseline_serial)


@pytest.mark.parametrize("mode", ["flip", "truncate"])
def test_serial_corrupt_checkpoint_falls_back(mode, chunked_trace, tmp_path,
                                              baseline_serial):
    ck = tmp_path / "ck"
    analyze_trace(chunked_trace, detector="our",
                  ckpt_dir=ck, ckpt_every=1, deadline_s=1e-6)
    analyze_trace(chunked_trace, detector="our",
                  ckpt_dir=ck, ckpt_every=1, deadline_s=1e-6, resume=True)
    lanes = sorted(ck.glob("serial-*.ckpt"))
    assert len(lanes) >= 2
    corrupt_checkpoint(lanes[-1], mode=mode)

    r = analyze_trace(chunked_trace, detector="our",
                      ckpt_dir=ck, resume=True)
    assert not r.partial
    assert lanes[-1].name + ".bad" in r.checkpoint["quarantined"]
    # fell back to the previous generation, not from-scratch
    assert r.checkpoint["resumed"][0]["from_seq"] == \
        int(lanes[-2].stem.split("-")[1])
    assert_parity(r, baseline_serial)


def test_serial_hard_kill_then_resume(chunked_trace, tmp_path,
                                      baseline_serial):
    """SIGKILL-grade death right after a checkpoint hit disk: the child
    process dies with no cleanup, and resuming from the on-disk state
    still converges to the fault-free result."""
    ck = tmp_path / "ck"
    script = (
        "import os\n"
        "from repro.pipeline import analyze_trace\n"
        "from repro.pipeline import checkpoint as ckpt_mod\n"
        "real_write = ckpt_mod.CheckpointStore.write\n"
        "def dying_write(self, meta, state):\n"
        "    path = real_write(self, meta, state)\n"
        "    if self.next_seq() > 3:\n"
        "        os._exit(117)  # no cleanup, no atexit: a hard death\n"
        "    return path\n"
        "ckpt_mod.CheckpointStore.write = dying_write\n"
        f"analyze_trace({str(chunked_trace)!r}, detector='our',\n"
        f"              ckpt_dir={str(ck)!r}, ckpt_every=1)\n"
    )
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, timeout=60)
    assert proc.returncode != 0  # it died mid-run, by design
    assert sorted(ck.glob("serial-*.ckpt"))  # state survived the death

    r = analyze_trace(chunked_trace, detector="our",
                      ckpt_dir=ck, resume=True)
    assert not r.partial
    assert r.checkpoint["resumed"][0]["from_seq"] >= 2
    assert_parity(r, baseline_serial)


# -- salvage accounting through resume ---------------------------------------


def test_salvage_loss_accounting_survives_resume(chunked_trace, tmp_path):
    """Satellite regression: a reader driven from a resumed offset must
    report *cumulative* salvage losses, identical to a one-shot read."""
    damaged = tmp_path / "damaged.trace"
    damaged.write_bytes(chunked_trace.read_bytes())
    flip_bytes(damaged, chunk=5, seed=3)

    oneshot = analyze_trace(damaged, detector="our", salvage=True)
    assert oneshot.salvage["quarantined_chunks"] == [5]
    assert oneshot.salvage["events_lost"] > 0

    ck = tmp_path / "ck"
    partial = analyze_trace(damaged, detector="our", salvage=True,
                            ckpt_dir=ck, ckpt_every=1, deadline_s=1e-6)
    assert partial.partial
    resumed = analyze_trace(damaged, detector="our", salvage=True,
                            ckpt_dir=ck, resume=True)
    assert not resumed.partial
    assert resumed.salvage == oneshot.salvage
    assert json.dumps(resumed.verdicts, sort_keys=True) == \
        json.dumps(oneshot.verdicts, sort_keys=True)


def test_salvage_loss_before_checkpoint_still_counted(chunked_trace,
                                                      tmp_path):
    """Damage quarantined *before* the final resume point: the last
    reader never sees chunk 2 at all, yet the cursor threads its loss
    through the checkpoint and the final accounting still includes it."""
    damaged = tmp_path / "damaged.trace"
    damaged.write_bytes(chunked_trace.read_bytes())
    flip_bytes(damaged, chunk=2, seed=7)

    oneshot = analyze_trace(damaged, detector="our", salvage=True)
    ck = tmp_path / "ck"
    # leg 1 stops after chunk 1; leg 2 resumes, quarantines chunk 2 and
    # checkpoints past it; the final leg starts beyond the damage
    for _ in range(2):
        partial = analyze_trace(damaged, detector="our",
                                salvage=True, ckpt_dir=ck, ckpt_every=1,
                                deadline_s=1e-6, resume=ck.exists())
        assert partial.partial
    resumed = analyze_trace(damaged, detector="our", salvage=True,
                            ckpt_dir=ck, resume=True)
    assert not resumed.partial
    assert resumed.salvage == oneshot.salvage


# -- validation and API surface ----------------------------------------------


def test_guards_require_ckpt_dir(mv_trace):
    with pytest.raises(ValueError, match="checkpoint directory"):
        analyze_trace(mv_trace, deadline_s=10.0)
    with pytest.raises(ValueError, match="checkpoint directory"):
        analyze_trace(mv_trace, max_rss_mb=100)
    with pytest.raises(ValueError, match="checkpoint directory"):
        analyze_trace(mv_trace, resume=True)


def test_ckpt_every_must_be_positive(mv_trace, tmp_path):
    with pytest.raises(ValueError, match="ckpt_every"):
        analyze_trace(mv_trace, ckpt_dir=tmp_path / "ck", ckpt_every=0)


def test_resume_with_empty_dir_runs_from_scratch(chunked_trace, tmp_path,
                                                 baseline_serial):
    r = analyze_trace(chunked_trace, detector="our",
                      ckpt_dir=tmp_path / "empty", resume=True)
    assert not r.partial
    assert r.checkpoint["resumed"] == []
    assert_parity(r, baseline_serial)


def test_mismatched_checkpoint_is_rejected(chunked_trace, mv_trace,
                                           tmp_path):
    """A checkpoint from another trace/detector must never be resumed."""
    ck = tmp_path / "ck"
    analyze_trace(chunked_trace, detector="our",
                  ckpt_dir=ck, ckpt_every=1, deadline_s=1e-6)
    with pytest.raises(CheckpointError, match="does not match"):
        analyze_trace(mv_trace, detector="our",
                      ckpt_dir=ck, resume=True)
    with pytest.raises(CheckpointError, match="does not match"):
        analyze_trace(chunked_trace, detector="mc",
                      ckpt_dir=ck, resume=True)


def test_avl_store_layout_is_an_unusable_checkpoint(chunked_trace, tmp_path,
                                                     capsys):
    """A mid-trace checkpoint whose stores carry the AVL store's
    ``repro-flat-bst-v3`` layout cannot be resumed: ``--resume`` exits 2
    naming the layout (serve discards such a checkpoint instead)."""
    from repro.cli import main

    ck = tmp_path / "ck"
    analyze_trace(chunked_trace, detector="our",
                  ckpt_dir=ck, ckpt_every=1, deadline_s=1e-6)
    store = CheckpointStore(ck)
    header, state = store.load_latest()
    stores = state["detector"]["state"]["_stores"]
    assert stores
    for s in stores.values():
        s["layout"] = "repro-flat-bst-v3"
    for old in ck.glob("*.ckpt"):
        old.unlink()
    store.write(header["meta"], state)
    capsys.readouterr()
    assert main(["analyze", str(chunked_trace), "--resume", str(ck)]) == 2
    assert "repro-flat-bst-v3" in capsys.readouterr().err
