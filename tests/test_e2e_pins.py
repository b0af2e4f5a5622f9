"""What the frozen end-to-end benchmark (``benchmarks/e2e``) reaches into.

The benchmark's files do not change with the program: its runs are
compared with runs of earlier commits.  So every name it uses must keep
resolving.  Its traced run wraps methods and functions of every layer
by name (``traced.install``), its inputs and oracle import the
pipeline, and its analyze workloads pass the hidden ``--jobs`` /
``--dispatch`` flags.  Without this test, only a failing e2e smoke run
(outside tier-1) shows that a change deleted one of them.
"""

import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.pipeline import record_app

E2E = Path(__file__).resolve().parent.parent / "benchmarks" / "e2e"

#: the benchmark's own modules, imported by their bare names
E2E_MODULES = ("common", "inputs", "workloads", "traced")


@pytest.fixture
def e2e(monkeypatch):
    """The benchmark's modules, imported as its scripts import them."""
    monkeypatch.syspath_prepend(str(E2E))
    clashing = [m for m in E2E_MODULES if m in sys.modules]
    assert not clashing, f"modules already imported: {clashing}"
    try:
        yield {m: __import__(m) for m in E2E_MODULES}
    finally:
        for m in E2E_MODULES:
            sys.modules.pop(m, None)


def test_traced_run_installs_and_undoes_every_wrapper(e2e):
    from repro.core.flatcore import FlatDetector
    from repro.pipeline import shard
    from repro.pipeline.format import TraceReader

    def pinned():
        return (dict(vars(FlatDetector)), dict(vars(TraceReader)),
                shard.dispatch_batch)

    before = pinned()
    # raises if a name the traced run wraps no longer resolves
    patch = e2e["traced"].install(e2e["traced"].Tracer())
    try:
        assert pinned() != before
    finally:
        patch.undo()
    assert pinned() == before


def test_inputs_and_workloads_import(e2e):
    assert callable(e2e["inputs"].ensure)
    assert callable(e2e["workloads"].run_analyze)


def test_analyze_takes_the_hidden_jobs_and_dispatch_flags(tmp_path, capsys):
    trace = tmp_path / "mv.trace"
    record_app("minivite", nranks=2, size=64, inject_race=True, out=trace)
    assert main(["analyze", str(trace), "--jobs", "2", "--dispatch", "queue",
                 "--json"]) == 0
    assert '"verdicts"' in capsys.readouterr().out
