"""Forensics surfaces end to end: explain, --trace-out, --report-html,
and determinism of the captured bundles across a checkpoint resume."""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.cli import main
from repro.obs.chrometrace import validate_chrome_trace
from repro.pipeline import analyze_trace

GOLDEN_FIG9B = (
    "Error when inserting memory access of type RMA_WRITE from file "
    "./dspl.hpp:614 with already inserted interval of type RMA_WRITE "
    "from file ./dspl.hpp:612. "
    "The program will be exiting now with MPI_Abort."
)


@pytest.fixture(autouse=True)
def _fresh_registry(monkeypatch):
    monkeypatch.delenv("REPRO_OBS", raising=False)
    monkeypatch.delenv("REPRO_OBS_TIMELINE", raising=False)
    prev = obs.active()
    obs.reset(enabled=True)
    yield
    obs.set_registry(prev)


# -- determinism across a checkpoint resume ----------------------------------


def test_forensics_and_timeline_identical_serial_vs_sharded(minivite_trace,
                                                            tmp_path):
    """One uninterrupted run vs one stopped after its first chunk and
    resumed from the checkpoint: identical bundles and lanes."""
    obs.reset(enabled=True)
    serial = analyze_trace(minivite_trace, detector="our")
    ck = tmp_path / "ck"
    obs.reset(enabled=True)
    assert analyze_trace(minivite_trace, detector="our", ckpt_dir=ck,
                         ckpt_every=1, deadline_s=1e-9).partial
    obs.reset(enabled=True)
    resumed = analyze_trace(minivite_trace, detector="our", ckpt_dir=ck,
                            resume=True)
    assert resumed.checkpoint["resumed"][0]["chunks_skipped"] == 1

    assert serial.forensics, "the racy trace must produce forensics"
    assert json.dumps(serial.forensics, sort_keys=True) == json.dumps(
        resumed.forensics, sort_keys=True)
    assert json.dumps(serial.timeline, sort_keys=True) == json.dumps(
        resumed.timeline, sort_keys=True)
    # one bundle per verdict, in the same canonical order
    assert len(serial.forensics) == len(serial.verdicts)
    for bundle, verdict in zip(serial.forensics, serial.verdicts):
        assert bundle["rank"] == verdict["rank"]
        assert bundle["new"]["line"] == verdict["new"]["line"]


def test_forensics_bundles_carry_the_race_context(minivite_trace):
    result = analyze_trace(minivite_trace, detector="our")
    bundle = result.forensics[0]
    assert bundle["schema"] == "repro-forensics-v1"
    assert bundle["phase"] == "data_race_detection"
    assert bundle["sync"].get("open_epochs")
    views = bundle["timeline"]["views"]
    assert views, "surrounding timeline views must be captured"
    flat = [e for view in views.values() for e in view]
    assert any(e["kind"] in ("lock_all", "fence") for e in flat), (
        "the enclosing epoch must appear in the context")


def test_obs_off_disables_forensics_and_timeline(minivite_trace,
                                                 monkeypatch):
    monkeypatch.setenv("REPRO_OBS", "off")
    obs.reset()
    result = analyze_trace(minivite_trace, detector="our")
    assert result.verdicts, "detection itself must still work"
    assert result.forensics == []
    assert result.timeline is None and result.obs is None


def test_timeline_off_keeps_metrics_but_no_forensics(minivite_trace,
                                                     monkeypatch):
    monkeypatch.setenv("REPRO_OBS_TIMELINE", "off")
    obs.reset(enabled=True)
    result = analyze_trace(minivite_trace, detector="our")
    assert result.verdicts and result.obs is not None
    assert result.timeline is None
    # bundles are still captured (metrics are on) but hold no events
    for bundle in result.forensics:
        views = bundle.get("timeline", {}).get("views", {})
        assert all(view == [] for view in views.values())


# -- CLI surfaces ------------------------------------------------------------


def test_explain_prints_the_fig9b_diagnostic(minivite_trace, capsys):
    assert main(["explain", str(minivite_trace)]) == 0
    out = capsys.readouterr().out
    assert GOLDEN_FIG9B in out
    assert "./dspl.hpp:612" in out and "./dspl.hpp:614" in out
    assert "timeline of rank" in out
    assert "racing access" in out


def test_explain_context_does_not_leak_into_later_analyses(minivite_trace,
                                                          capsys):
    """``--context K`` widens only that explain run's bundles: the next
    analysis in the same process captures the default 8 events again."""
    from repro.detectors.base import Detector

    before = analyze_trace(minivite_trace).forensics
    assert main(["explain", str(minivite_trace), "--context", "2",
                 "--json"]) == 0
    narrow = json.loads(capsys.readouterr().out)["forensics"]
    assert narrow != before
    assert Detector.FORENSICS_CONTEXT == 8
    assert analyze_trace(minivite_trace).forensics == before


def test_explain_on_race_free_trace(tmp_path, capsys):
    trace = tmp_path / "hist.trace"
    main(["record", "histogram", "--size", "64", "-o", str(trace)])
    capsys.readouterr()
    assert main(["explain", str(trace)]) == 0
    assert "no races" in capsys.readouterr().out


def test_analyze_trace_out_is_valid_and_names_the_race(minivite_trace,
                                                       tmp_path, capsys):
    out = tmp_path / "mv.chrome.json"
    assert main(["analyze", str(minivite_trace),
                 "--trace-out", str(out)]) == 0
    events = json.loads(out.read_text())
    assert validate_chrome_trace(events) == []
    races = [e for e in events if e.get("cat") == "race"]
    assert races and any("./dspl.hpp:614" in e["name"]
                         and "./dspl.hpp:612" in e["name"] for e in races)


def test_analyze_report_html_is_self_contained(minivite_trace, tmp_path,
                                               capsys):
    out = tmp_path / "mv.html"
    assert main(["analyze", str(minivite_trace),
                 "--report-html", str(out)]) == 0
    html = out.read_text()
    assert html.lstrip().lower().startswith("<!doctype html")
    assert "race" in html and "svg" in html
    assert 'class="acc race"' in html or "race" in html
    # self-contained: no external scripts, styles, or images
    assert "<script src" not in html and "<link" not in html
    assert "<img" not in html


def test_json_stdout_holds_the_json_body_alone(minivite_trace, tmp_path,
                                              capsys):
    """With ``--json``, export status lines and the ``--metrics`` table
    go to stderr, so stdout parses as JSON whatever else is asked for."""
    assert main(["analyze", str(minivite_trace), "--json", "--metrics",
                 "--trace-out", str(tmp_path / "mv.chrome.json"),
                 "--report-html", str(tmp_path / "mv.html")]) == 0
    out = capsys.readouterr()
    assert json.loads(out.out)["races"] == 12
    assert "chrome trace: " in out.err and "html report -> " in out.err
    assert "pipeline.events.read" in out.err  # the metrics table
    assert main(["explain", str(minivite_trace), "--json",
                 "--html", str(tmp_path / "explain.html")]) == 0
    out = capsys.readouterr()
    assert json.loads(out.out)["races"] == 12
    assert "html report -> " in out.err


@pytest.mark.parametrize("args", [["explain"], ["analyze", "--json"]],
                         ids=["explain", "analyze-json"])
def test_closed_stdout_exits_2_without_traceback(minivite_trace, args):
    """``repro explain t | head -3``: a reader that goes away early is
    an I/O failure (exit 2), reported without a traceback."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(obs.__file__).resolve().parents[2])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               filter(None, (src, os.environ.get("PYTHONPATH"))))}
    cmd = [sys.executable, "-m", "repro", args[0], str(minivite_trace),
           *args[1:]]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env)
    proc.stdout.close()  # the reader is gone before the first write
    stderr = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 2, stderr
    assert "Traceback" not in stderr and "BrokenPipeError" not in stderr
