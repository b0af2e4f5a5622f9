"""Interrupt cleanup: Ctrl-C or SIGTERM must never leak worker processes.

The engine's ``finally`` reaps every process it ever spawned, with
bounded waits; the CLI converts SIGTERM into ``SystemExit`` so that
path also runs when the process is terminated from outside.  These
tests interrupt the producer at every level — in-process exception,
signal to a library caller, signal to the CLI — and assert no orphans
and no leftover temp files.
"""

import multiprocessing as mp
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro.pipeline.multiproc as multiproc
from repro.pipeline import analyze_trace

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")


def _no_children_left(deadline=5.0):
    """True once this process has no live multiprocessing children."""
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        if not mp.active_children():
            return True
        time.sleep(0.05)
    return not mp.active_children()


def _interrupt_producer(monkeypatch, exc_type, after=500):
    """Make the producer loop raise ``exc_type`` after ``after`` events.

    ``shards_of`` is the routing call the producer makes per event; in
    queue dispatch the workers never call it, so the patched copy only
    fires in the parent.
    """
    real = multiproc.shards_of
    seen = {"n": 0}

    def exploding(event, nranks):
        seen["n"] += 1
        if seen["n"] > after:
            raise exc_type()
        return real(event, nranks)

    monkeypatch.setattr(multiproc, "shards_of", exploding)


@pytest.mark.parametrize("exc_type", [KeyboardInterrupt, SystemExit])
def test_producer_interrupt_reaps_all_workers(mv_trace, monkeypatch,
                                              exc_type):
    _interrupt_producer(monkeypatch, exc_type)
    with pytest.raises(exc_type):
        analyze_trace(mv_trace, jobs=4, dispatch="queue", batch_size=32)
    assert _no_children_left()


def test_generic_producer_error_reaps_all_workers(mv_trace, monkeypatch):
    _interrupt_producer(monkeypatch, RuntimeError)
    with pytest.raises(RuntimeError):
        analyze_trace(mv_trace, jobs=4, dispatch="queue", batch_size=32)
    assert _no_children_left()


def test_sigterm_mid_analysis_leaves_no_orphans(mv_trace, tmp_path):
    """SIGTERM a supervising parent wedged on a stalled worker.

    The stall guarantees the parent is mid-collection when the signal
    lands; converting SIGTERM to SystemExit (as the CLI does) must run
    the engine's cleanup and take the whole process group down — the
    sleeping worker included.
    """
    script = (
        "import signal, sys\n"
        "from repro.pipeline import analyze_trace\n"
        "from repro.faultinject import FaultPlan, StallWorker\n"
        "signal.signal(signal.SIGTERM, lambda s, f: sys.exit(128 + s))\n"
        "print('go', flush=True)\n"
        f"analyze_trace({str(mv_trace)!r}, jobs=2, dispatch='file',\n"
        "              fault_plan=FaultPlan((StallWorker(0, attempt=None),)))\n"
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": REPO_SRC},
        stdout=subprocess.PIPE, start_new_session=True,
    )
    try:
        assert proc.stdout.readline().strip() == b"go"
        time.sleep(1.0)  # let the workers fork and the stall bite
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 143
        # the whole session (parent + workers) must be gone
        end = time.monotonic() + 10
        while time.monotonic() < end:
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.1)
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.stdout.close()


@pytest.mark.parametrize("fmt", ["binary", "repro-trace-v2"])
def test_writer_interrupted_while_starting_leaves_no_temp(tmp_path,
                                                          monkeypatch, fmt):
    """SIGTERM landing while a writer writes its header — after it has
    created ``<out>.tmp``, before the caller's ``with`` — leaves no file."""
    import types

    import repro.pipeline.writer as writer_mod

    def interrupted(*args, **kwargs):
        raise SystemExit(143)

    monkeypatch.setattr(writer_mod, "json",
                        types.SimpleNamespace(dump=interrupted,
                                              dumps=interrupted))
    with pytest.raises(SystemExit):
        writer_mod.make_trace_writer(tmp_path / "t.trace", nranks=2,
                                     format=fmt)
    assert list(tmp_path.iterdir()) == []


def test_sigterm_mid_record_removes_temp_files(tmp_path):
    """``repro record`` killed mid-write leaves neither trace nor temp."""
    out = tmp_path / "mv.trace"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "record", "minivite",
         "--size", "32768", "--inject-race", "-o", str(out)],
        env={**os.environ, "PYTHONPATH": REPO_SRC},
        stderr=subprocess.DEVNULL, start_new_session=True,
    )
    tmp = out.with_name(out.name + ".tmp")
    try:
        end = time.monotonic() + 30
        while not tmp.exists() and time.monotonic() < end:
            if proc.poll() is not None:
                pytest.fail("recording finished before it could be killed; "
                            "raise --size")
            time.sleep(0.02)
        assert tmp.exists()
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 143
        assert not out.exists()
        assert not tmp.exists()
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
