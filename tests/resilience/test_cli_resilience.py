"""CLI failure surface: exit codes, flags and JSON fields for resilience.

Exit-code contract: 0 success, 2 operator error (bad input, unreadable
or corrupt trace, unusable checkpoint), 3 the *recorded application*
failed under simulation (``repro record``), 4 a resource guard stopped
the analysis early — the verdict is partial and resumable with
``--resume``.
"""

import json

import pytest

import repro.pipeline
from repro.cli import main
from repro.faultinject import chunk_index, flip_bytes
from repro.mpi.errors import MpiSimError
from repro.pipeline import PipelineResult


@pytest.fixture
def damaged_trace(rechunk, mv_trace):
    path = rechunk(mv_trace)
    flip_bytes(path, chunk=chunk_index(path)[-1].chunk, seed=5)
    return path


def test_corrupt_trace_without_salvage_exits_2(damaged_trace, capsys):
    assert main(["analyze", str(damaged_trace)]) == 2
    err = capsys.readouterr().err
    assert "repro analyze:" in err
    assert "checksum" in err


def test_corrupt_trace_with_salvage_exits_0(damaged_trace, capsys):
    assert main(["analyze", str(damaged_trace), "--salvage"]) == 0
    out = capsys.readouterr().out
    assert "salvage: 1 chunk(s) quarantined" in out


def test_salvage_accounting_in_json_report(damaged_trace, capsys):
    assert main(["analyze", str(damaged_trace), "--salvage", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert len(report["salvage"]["quarantined_chunks"]) == 1
    assert report["salvage"]["events_lost"] > 0
    assert report["salvage"]["truncated"] is False
    assert report["partial"] is False


def test_explain_salvage_reads_what_analyze_salvage_reads(damaged_trace,
                                                          capsys):
    assert main(["analyze", str(damaged_trace), "--salvage", "--json"]) == 0
    analyzed = json.loads(capsys.readouterr().out)
    assert main(["explain", str(damaged_trace), "--salvage", "--json"]) == 0
    explained = json.loads(capsys.readouterr().out)
    assert explained["races"] == analyzed["races"] > 0
    assert explained["forensics"] == analyzed["forensics"]


def test_salvage_trace_out_leaves_the_quarantined_chunk_out(
        damaged_trace, mv_trace, tmp_path, capsys):
    """``--trace-out`` re-reads the trace in the analysis's salvage
    mode: the export succeeds, without the quarantined chunk's events."""
    intact = tmp_path / "intact.json"
    salvaged = tmp_path / "salvaged.json"
    assert main(["analyze", str(mv_trace), "--trace-out", str(intact)]) == 0
    assert main(["analyze", str(damaged_trace), "--salvage",
                 "--trace-out", str(salvaged)]) == 0
    assert "salvage: 1 chunk(s) quarantined" in capsys.readouterr().out
    kept = json.loads(salvaged.read_text())
    assert 0 < len(kept) < len(json.loads(intact.read_text()))


def test_missing_trace_exits_2(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "nope.trace")]) == 2
    assert "repro analyze:" in capsys.readouterr().err


def test_record_app_failure_exits_3(monkeypatch, capsys):
    def exploding_record(*args, **kwargs):
        raise MpiSimError("rank 2 deadlocked in MPI_Win_fence")

    monkeypatch.setattr(repro.pipeline, "record_app", exploding_record)
    assert main(["record", "minivite"]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1  # exactly one line
    assert "minivite failed" in err
    assert "MpiSimError" in err
    assert "deadlocked" in err


def test_record_bad_arguments_exit_2(monkeypatch, capsys):
    def rejecting_record(*args, **kwargs):
        raise ValueError("--inject-race is not supported for 'cfd'")

    monkeypatch.setattr(repro.pipeline, "record_app", rejecting_record)
    assert main(["record", "cfd", "--inject-race"]) == 2
    assert "repro record:" in capsys.readouterr().err


def test_resilience_flags_reach_the_engine(monkeypatch, mv_trace, tmp_path,
                                           capsys):
    captured = {}

    def spy_analyze(source, **kwargs):
        captured.update(kwargs)
        return PipelineResult(
            detector=kwargs["detector"], nranks=4, events_total=0,
            wall_seconds=0.01, verdicts=[], shard_stats=[],
        )

    # patch where the CLI looks it up (imported inside _analyze)
    monkeypatch.setattr(repro.pipeline, "analyze_trace", spy_analyze)
    ck = str(tmp_path / "ck")
    assert main(["analyze", str(mv_trace), "--salvage", "--ckpt-dir", ck,
                 "--ckpt-every", "3", "--deadline-s", "7.5",
                 "--max-rss-mb", "64"]) == 0
    assert captured["salvage"] is True
    assert captured["ckpt_dir"] == ck and captured["ckpt_every"] == 3
    assert captured["deadline_s"] == 7.5 and captured["max_rss_mb"] == 64
    assert captured["resume"] is False


def test_deadline_partial_exits_4_and_resume_exits_0(mv_trace, tmp_path,
                                                     capsys):
    ck = tmp_path / "ck"
    status = main(["analyze", str(mv_trace), "--ckpt-dir", str(ck),
                   "--ckpt-every", "1", "--deadline-s", "0.000001"])
    assert status == 4
    out = capsys.readouterr().out
    assert "PARTIAL:" in out
    assert f"--resume {ck}" in out
    assert list(ck.glob("serial-*.ckpt"))

    status = main(["analyze", str(mv_trace), "--resume", str(ck)])
    assert status == 0
    out = capsys.readouterr().out
    assert "resumed lane serial from checkpoint" in out
    assert "(amortized)" in out
    assert "PARTIAL" not in out


def test_partial_json_report_carries_checkpoint_fields(mv_trace, tmp_path,
                                                       capsys):
    ck = tmp_path / "ck"
    status = main(["analyze", str(mv_trace), "--json",
                   "--ckpt-dir", str(ck), "--ckpt-every", "1",
                   "--deadline-s", "0.000001"])
    assert status == 4
    report = json.loads(capsys.readouterr().out)
    assert report["partial"] is True
    assert 0 < report["analyzed_fraction"] < 1
    assert report["checkpoint"]["written"] >= 1
    assert report["checkpoint"]["stopped"] == "deadline"


def test_resume_and_ckpt_dir_must_agree(mv_trace, tmp_path, capsys):
    assert main(["analyze", str(mv_trace),
                 "--ckpt-dir", str(tmp_path / "a"),
                 "--resume", str(tmp_path / "b")]) == 2
    assert "disagree" in capsys.readouterr().err


def test_guards_without_ckpt_dir_exit_2(mv_trace, capsys):
    assert main(["analyze", str(mv_trace), "--deadline-s", "5"]) == 2
    assert "checkpoint directory" in capsys.readouterr().err


def test_corrupt_checkpoint_quarantine_reported(mv_trace, tmp_path, capsys):
    from repro.faultinject import corrupt_checkpoint

    ck = tmp_path / "ck"
    main(["analyze", str(mv_trace), "--ckpt-dir", str(ck),
          "--ckpt-every", "1", "--deadline-s", "0.000001"])
    main(["analyze", str(mv_trace), "--ckpt-dir", str(ck),
          "--ckpt-every", "1", "--deadline-s", "0.000001", "--resume",
          str(ck)])
    capsys.readouterr()
    newest = sorted(ck.glob("serial-*.ckpt"))[-1]
    corrupt_checkpoint(newest, mode="flip")
    status = main(["analyze", str(mv_trace), "--resume", str(ck)])
    assert status == 0
    out = capsys.readouterr().out
    assert f"quarantined corrupt checkpoint: {newest.name}.bad" in out
    assert "resumed lane serial" in out
