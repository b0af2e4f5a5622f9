"""``repro analyze`` and ``repro serve`` load only the code they run.

Trace analysis needs the trace reader, the engine, the flat detector
core and the observability layer — not the simulated MPI runtime,
numpy, the object core, ``multiprocessing``, the checkpoint and writer
code, fault injection or the HTTP client.  Every
process compiles what it imports (nothing is cached as bytecode under
``PYTHONDONTWRITEBYTECODE=1``), so each module an entry point loads
without running is start-up time every analysis pays.  These tests run
each entry point end to end in a fresh interpreter and list what it
imported; the source-byte budget catches an eager import without any
timing.
"""

import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.pipeline import analyze_trace, make_trace_writer, record_app

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

#: the object core: Algorithm 1 over the node-linked AVL tree, and the
#: interval algebra the flat core inlines
OBJECT_CORE = (
    "repro.bst.avl",
    "repro.bst.dump",
    "repro.bst.interval_tree",
    "repro.bst.legacy_search",
    "repro.core.detector",
    "repro.core.fragmentation",
    "repro.core.insertion",
    "repro.core.merging",
    "repro.core.strided",
    "repro.intervals.combine",
    "repro.intervals.conflict",
)

#: process pools: analysis and the daemon run in one process
MULTIPROC = ("multiprocessing",)

#: the machinery behind ``@dataclass``: no module an analysis or the
#: daemon loads defines one (see ``repro._fields``)
DATACLASS_MACHINERY = ("dataclasses", "inspect")

#: what a default analysis (v2 trace, no checkpoint flags) never runs:
#: other subcommands, event decode, the chain tools, the flat store's
#: checkpoint encoding
NOT_IN_ANALYZE = FORBIDDEN + OBJECT_CORE + MULTIPROC + DATACLASS_MACHINERY + (
    "repro.bst.flatstate",
    "repro.commands",
    "repro.faultinject",
    "repro.mpi.trace_io",
    "repro.pipeline.chain",
    "repro.pipeline.checkpoint",
    "repro.pipeline.decode",
    "repro.pipeline.record",
    "repro.pipeline.writer",
    "urllib.request",
)

#: what the daemon never loads while it analyses a job
NOT_IN_SERVE_JOB = FORBIDDEN + OBJECT_CORE + MULTIPROC + ("repro.faultinject",)

#: what the daemon never loads before it reports ready (afterwards the
#: probe's own client thread imports the HTTP client)
NOT_IN_SERVE = NOT_IN_SERVE_JOB + DATACLASS_MACHINERY + (
    "repro.bst.flatstate",
    "repro.commands.client",
    "repro.pipeline.decode",
    "repro.serve.client",
    "urllib.request",
)

#: source bytes of the ``repro`` modules a zero-event ``repro analyze
#: --json`` loads: 449,027 with the object core, the multi-process
#: engine and the checkpoint code loaded eagerly; 309,318 without them;
#: 298,987 once the reader reads only repro-trace-v2; 284,369 once the
#: multi-process engine is gone and the CLI and engine shrink; 280,985
#: once every timeline record has one shape; 279,947 once the flat store
#: drops its duplicate-key removal and ``balanced`` option; 266,790 once
#: the flat store is sorted typed-array blocks instead of an AVL tree;
#: 241,870 once no module on the path is a dataclass and other
#: commands' handlers, event decode, the chain tools and the flat
#: store's checkpoint encoding load only where they run; 237,692 once
#: the flat core drops its decoded-event loop and the engine, the
#: dispatcher and the wire walker their duplicate paths (budget: that
#: plus 4,254 B of headroom)
ANALYZE_SOURCE_BUDGET = 241_946

#: the same for the daemon at readiness: 336,872, then 332,694
#: (budget: that plus 4,254 B)
SERVE_SOURCE_BUDGET = 336_948

#: the only modules whose classes a checkpoint payload pickles by name
#: (``ReplayWindow`` is the window a trace replay registers)
CKPT_CLASS_MODULES = {
    "repro.aliasing.filter",
    "repro.core.report",
    "repro.intervals.access",
    "repro.intervals.interval",
    "repro.pipeline.shard",
}

_PROBE = r"""
import contextlib, io, json, os, signal, sys, threading, time

cfg = json.loads(sys.argv[1])


def report(**fields):
    with open(cfg["out"], "w") as fh:
        json.dump(fields, fh)


def loaded():
    size = 0
    for name, mod in list(sys.modules.items()):
        path = getattr(mod, "__file__", None)
        if path and (name == "repro" or name.startswith("repro.")):
            size += os.path.getsize(path)
    return {"modules": sorted(sys.modules), "repro_source_bytes": size}


from repro.cli import main

if cfg["command"] == "analyze":
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(["analyze", cfg["trace"], "--json", *cfg["args"]])
    report(rc=rc, result=json.loads(out.getvalue()), **loaded())
else:
    state = cfg["state"]

    def client():
        # serve.json lands once the daemon is ready; its modules are
        # taken before this thread imports the HTTP client
        while not os.path.exists(os.path.join(state, "serve.json")):
            time.sleep(0.02)
        ready = loaded()
        from repro.serve import poll_job, resolve_server, submit_trace

        base = resolve_server(None, state)
        _, _, job = submit_trace(base, cfg["trace"])
        job = poll_job(base, job["id"], timeout_s=60)
        report(state=job["state"], races=job.get("races"), ready=ready,
               after_job=loaded())
        os.kill(os.getpid(), signal.SIGTERM)

    threading.Thread(target=client, daemon=True).start()
    sys.exit(main(["serve", "--state", state, "--port", "0"]))
"""


@pytest.fixture(scope="module")
def trace(tmp_path_factory):
    path = tmp_path_factory.mktemp("lean") / "mv.trace"
    record_app("minivite", nranks=4, size=256, inject_race=True, out=path)
    return path


@pytest.fixture(scope="module")
def empty_trace(tmp_path_factory):
    path = tmp_path_factory.mktemp("lean") / "empty.trace"
    with make_trace_writer(path, nranks=4, format="binary"):
        pass
    return path


def _probe(tmp_path, command, trace, *args, state=None):
    out = tmp_path / "probe.json"
    cfg = {"command": command, "trace": str(trace), "out": str(out),
           "args": [str(a) for a in args],
           "state": str(state) if state is not None else None}
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(cfg)],
        env=env, capture_output=True, text=True, timeout=120)
    assert out.exists(), proc.stderr
    return proc, json.loads(out.read_text())


def _loaded(seen, prefixes):
    return sorted(m for m in seen["modules"]
                  if any(m == p or m.startswith(p + ".") for p in prefixes))


def _analyze(tmp_path, trace, *args):
    proc, seen = _probe(tmp_path, "analyze", trace, *args)
    assert proc.returncode == 0, proc.stderr
    assert seen["rc"] == 0
    return seen


@pytest.fixture(scope="module")
def analyzed(tmp_path_factory, trace):
    """One default ``repro analyze --json`` of the trace."""
    return _analyze(tmp_path_factory.mktemp("analyze"), trace)


@pytest.fixture(scope="module")
def served(tmp_path_factory, trace):
    """One daemon: its modules at readiness, one job's verdict, and its
    modules once that job is done."""
    tmp = tmp_path_factory.mktemp("serve")
    proc, seen = _probe(tmp, "serve", trace, state=tmp / "state")
    assert proc.returncode == 0, proc.stderr
    assert seen["state"] == "done" and seen["races"] > 0
    return seen


def test_analyze_imports_no_simulator(analyzed):
    assert _loaded(analyzed, FORBIDDEN) == []


def test_analyze_loads_only_the_serial_wire_path(analyzed):
    assert analyzed["result"]["races"] > 0
    assert _loaded(analyzed, NOT_IN_ANALYZE) == []
    assert "repro.core.flatcore" in analyzed["modules"]


def test_analyze_metrics_imports_no_simulator(tmp_path, trace):
    """The ``--metrics`` table is formatted without the experiments
    package (and the numpy it pulls in)."""
    seen = _analyze(tmp_path, trace, "--metrics")
    assert _loaded(seen, FORBIDDEN) == []


@pytest.fixture(scope="module")
def zero_event(tmp_path_factory, empty_trace):
    """One default ``repro analyze --json`` of a trace with no events."""
    return _analyze(tmp_path_factory.mktemp("zero"), empty_trace)


def test_race_free_analyze_loads_the_zero_event_set(tmp_path, zero_event):
    """A race-free analysis runs nothing a zero-event one does not load
    (no default-path code waits for the first chunk to be imported)."""
    cfd = tmp_path / "cfd.trace"
    record_app("cfd", nranks=4, size=4, out=cfd)
    seen = _analyze(tmp_path, cfd)
    assert seen["result"]["events_total"] > 0
    assert seen["result"]["races"] == 0
    assert seen["modules"] == zero_event["modules"]
    for run in (seen, zero_event):
        assert _loaded(run, NOT_IN_ANALYZE) == []


def test_zero_event_analyze_source_budget(zero_event):
    seen = zero_event
    assert seen["result"]["events_total"] == 0
    assert seen["repro_source_bytes"] <= ANALYZE_SOURCE_BUDGET, (
        f"a zero-event analyze loads {seen['repro_source_bytes']:,} bytes "
        f"of repro source (budget {ANALYZE_SOURCE_BUDGET:,}): "
        f"{_loaded(seen, ('repro',))}")


def test_ckpt_dir_and_resume_load_the_checkpoint_module(tmp_path, trace,
                                                         analyzed):
    ck = tmp_path / "ck"
    first = _analyze(tmp_path, trace, "--ckpt-dir", ck, "--ckpt-every", 1)
    assert "repro.pipeline.checkpoint" in first["modules"]
    assert first["result"]["checkpoint"]["written"] > 0
    resumed = _analyze(tmp_path, trace, "--resume", ck)
    assert "repro.pipeline.checkpoint" in resumed["modules"]
    assert resumed["result"]["checkpoint"]["resumed"]
    for res in (first["result"], resumed["result"]):
        assert res["verdicts"] == analyzed["result"]["verdicts"]
        assert res["forensics"] == analyzed["result"]["forensics"]


def test_serve_imports_no_simulator(served):
    assert _loaded(served["ready"], FORBIDDEN) == []
    assert _loaded(served["after_job"], FORBIDDEN) == []


def test_serve_ready_without_object_core_multiproc_faults_or_client(served):
    assert _loaded(served["ready"], NOT_IN_SERVE) == []
    assert served["ready"]["repro_source_bytes"] <= SERVE_SOURCE_BUDGET, (
        f"the daemon loads {served['ready']['repro_source_bytes']:,} bytes "
        f"of repro source before it is ready (budget "
        f"{SERVE_SOURCE_BUDGET:,}): {_loaded(served['ready'], ('repro',))}")
    # what every job runs is loaded before the daemon reports ready
    for mod in ("repro.core.flatcore", "repro.pipeline.engine",
                "repro.pipeline.checkpoint"):
        assert mod in served["ready"]["modules"], mod


def test_serve_job_loads_no_object_core_multiproc_or_faults(served):
    assert _loaded(served["after_job"], NOT_IN_SERVE_JOB) == []


class _ClassRecorder(pickle.Unpickler):
    """Unpickler that notes every class a payload names."""

    def __init__(self, data: bytes) -> None:
        import io

        super().__init__(io.BytesIO(data))
        self.classes = set()

    def find_class(self, module, name):
        self.classes.add((module, name))
        return super().find_class(module, name)


def _ckpt_payloads(ckpt_dir: Path):
    """Raw pickled state of every checkpoint file in a directory."""
    for path in sorted(ckpt_dir.glob("*.ckpt")):
        blob = path.read_bytes()
        hlen = int.from_bytes(blob[8:12], "little")
        off = 12 + hlen
        nbytes = int.from_bytes(blob[off:off + 4], "little")
        yield blob[off + 8:off + 8 + nbytes]


def test_checkpoint_payload_classes_keep_their_import_paths(tmp_path, trace):
    """A checkpoint resumes only while the classes it names import.

    The payload pickles race reports, accesses, intervals, the alias
    filter and replay windows by ``module.Class``; moving any of them
    breaks resuming checkpoints already on disk, so that needs its own
    compatibility path (and a test loading a payload that names the old
    one).
    """
    ck = tmp_path / "ck"
    analyze_trace(trace, ckpt_dir=ck, ckpt_every=1)
    classes = set()
    payloads = list(_ckpt_payloads(ck))
    assert payloads
    for payload in payloads:
        rec = _ClassRecorder(payload)
        rec.load()
        classes |= rec.classes
    repro_modules = {m for m, _ in classes if m.split(".")[0] == "repro"}
    assert repro_modules == CKPT_CLASS_MODULES
    assert ("repro.core.report", "RaceReport") in classes
