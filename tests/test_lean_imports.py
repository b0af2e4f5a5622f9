"""``repro analyze`` and ``repro serve`` run without the simulator.

Trace analysis needs the trace format, the flat detector core and the
observability layer — not the simulated MPI runtime, the applications,
the experiment drivers or numpy.  Importing them anyway cost every
analysis process ~0.25 s of start-up and ~15 MB of resident memory, so
these tests run each entry point end to end in a fresh interpreter and
list what it imported.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.pipeline import record_app

SRC = Path(__file__).resolve().parent.parent / "src"

#: modules an analysis process must never import (prefix match)
FORBIDDEN = (
    "numpy",
    "repro.apps",
    "repro.experiments",
    "repro.microbench",
    "repro.mpi.interposition",
    "repro.mpi.simulator",
    "repro.mpi.window",
    "repro.scenarios",
    "repro.staticcheck",
)

_PROBE = r"""
import json, os, signal, sys, threading, time

FORBIDDEN = tuple(json.loads(sys.argv[1]))
command, trace, out = sys.argv[2], sys.argv[3], sys.argv[4]


def report(**fields):
    fields["loaded"] = sorted(
        m for m in sys.modules
        if any(m == f or m.startswith(f + ".") for f in FORBIDDEN))
    with open(out, "w") as fh:
        json.dump(fields, fh)


from repro.cli import main

if command == "analyze":
    import contextlib, io

    with contextlib.redirect_stdout(io.StringIO()):
        rc = main(["analyze", trace, "--json"])
    report(rc=rc)
else:
    state = sys.argv[5]

    def client():
        from repro.serve import ServerUnavailable, poll_job, resolve_server
        from repro.serve import submit_trace

        while True:
            try:
                base = resolve_server(None, state)
                break
            except ServerUnavailable:
                time.sleep(0.05)
        _, _, job = submit_trace(base, trace)
        job = poll_job(base, job["id"], timeout_s=60)
        report(state=job["state"], races=job.get("races"))
        os.kill(os.getpid(), signal.SIGTERM)

    threading.Thread(target=client, daemon=True).start()
    sys.exit(main(["serve", "--state", state, "--port", "0"]))
"""


@pytest.fixture(scope="module")
def trace(tmp_path_factory):
    path = tmp_path_factory.mktemp("lean") / "mv.trace"
    record_app("minivite", nranks=4, size=256, inject_race=True, out=path)
    return path


def _probe(tmp_path, *argv):
    out = tmp_path / "probe.json"
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(FORBIDDEN), argv[0],
         str(argv[1]), str(out), *map(str, argv[2:])],
        env=env,
        capture_output=True, text=True, timeout=120)
    assert out.exists(), proc.stderr
    return proc, json.loads(out.read_text())


def test_analyze_imports_no_simulator(tmp_path, trace):
    proc, seen = _probe(tmp_path, "analyze", trace)
    assert proc.returncode == 0, proc.stderr
    assert seen["rc"] == 0
    assert seen["loaded"] == []


def test_serve_imports_no_simulator(tmp_path, trace):
    proc, seen = _probe(tmp_path, "serve", trace, tmp_path / "state")
    assert proc.returncode == 0, proc.stderr
    assert seen["state"] == "done" and seen["races"] > 0
    assert seen["loaded"] == []
