"""Smoke test of the end-to-end benchmark: tiny inputs, one repetition.

Not part of tier-1 (``testpaths = ["tests"]``); run it with::

    PYTHONPATH=src python -m pytest benchmarks/e2e/bench_e2e_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

from common import HERE, RESULTS, ROOT, load_json, scrubbed_env

BENCH = load_json(ROOT / "BENCHMARK.json")


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--seed", "12345",
         "--seconds", "1", *args],
        cwd=str(cwd), env=scrubbed_env(), capture_output=True, text=True,
        timeout=900)


def _suite(trace: int) -> dict:
    proc = _run("--trace", str(trace))
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    return load_json(RESULTS / f"all-12345-trace{trace}.json")


def _assert_metrics(result: dict, section: str) -> None:
    assert set(result["workloads"]) == {w["name"] for w in BENCH["workloads"]}
    for name, r in result["workloads"].items():
        assert r["correct"] and r["error_rate"] == 0, (name, r["errors"])
        for m in BENCH[section]:
            assert m["name"] in r[section], (name, m["name"])


def test_every_end_to_end_metric_on_every_workload():
    result = _suite(0)
    _assert_metrics(result, "end_to_end")
    for r in result["workloads"].values():
        assert all(s["median"] > 0 for s in r["end_to_end"].values())
        # the demoted wall-time rates are still measured, without a bound
        assert {"events_per_s", "ops_per_s"} <= set(r["workload_metrics"])


def test_every_per_layer_metric_on_every_workload():
    result = _suite(1)
    _assert_metrics(result, "per_layer")
    for r in result["workloads"].values():
        # the layer spans' self times, the root span left out, explain
        # the traced wall: little time is outside every layer wrapper
        checks = r["layer_detail"]["self_time_check"]
        assert checks and all(
            abs(c["wall_s"] - c["layers_self_s"]) <= 0.05 * c["wall_s"]
            and c["unattributed_s"] <= 0.05 * c["wall_s"] for c in checks)


def test_result_line_contract():
    proc = _run("--workload", "cfd-clean", "--trace", "0")
    assert proc.returncode == 0, proc.stderr[-4000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    assert set(last["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns(".inputs", ".results",
                                                  ".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "cfd-clean",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
