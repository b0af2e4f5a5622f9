"""The CLI export surfaces: --metrics and --metrics-json."""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.cli import main
from repro.pipeline import record_app


@pytest.fixture(autouse=True)
def _fresh_registry():
    prev = obs.active()
    obs.reset(enabled=True)
    yield
    obs.set_registry(prev)


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "hist.trace"
    record_app("histogram", nranks=4, out=str(out))
    return str(out)


def test_analyze_metrics_table(trace_path, capsys):
    assert main(["analyze", trace_path, "--metrics"]) == 0
    out = capsys.readouterr().out
    assert "counters" in out
    assert "detector.events{tool=Our Contribution}" in out
    assert "races:" in out  # the normal report still prints


def test_analyze_metrics_json(trace_path, tmp_path, capsys):
    dump = tmp_path / "obs.json"
    assert main(["analyze", trace_path,
                 "--metrics-json", str(dump)]) == 0
    snap = json.loads(dump.read_text())
    assert snap["schema"] == "repro-obs-v1"
    assert snap["counters"]["pipeline.events.read"] > 0
    assert "pipeline.analyze" in snap["spans"]["children"]
    # the detector's registry folded in: per-tool counters present
    assert any(k.startswith("detector.events") for k in snap["counters"])


def test_analyze_metrics_json_disabled_is_empty_but_valid(
        trace_path, tmp_path):
    obs.reset(enabled=False)
    dump = tmp_path / "obs_off.json"
    assert main(["analyze", trace_path,
                 "--metrics-json", str(dump)]) == 0
    snap = json.loads(dump.read_text())
    assert snap["schema"] == "repro-obs-v1"
    assert snap["counters"] == {}


def test_run_metrics_table(capsys):
    assert main(["run", "table1", "--metrics"]) == 0
    out = capsys.readouterr().out
    assert "counters" in out or "(no metrics recorded" in out


def test_run_metrics_json(tmp_path):
    dump = tmp_path / "run_obs.json"
    assert main(["run", "table3", "--metrics-json", str(dump)]) == 0
    snap = json.loads(dump.read_text())
    assert snap["schema"] == "repro-obs-v1"
    # table3 replays the microbench suite under every detector: the
    # per-tool event counters must come out of the same registry
    assert any(k.startswith("detector.events") for k in snap["counters"])
