"""Interrupt cleanup: SIGTERM must never leak processes or temp files.

The CLI converts SIGTERM into ``SystemExit`` so an interrupted analysis
or recording unwinds instead of dying where it stands.  These tests
signal a library caller mid-analysis and the CLI mid-recording, and
assert no survivors and no leftover temp files.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")


def test_sigterm_mid_analysis_leaves_no_orphans(mv_trace, tmp_path):
    """SIGTERM a library caller wedged mid-analysis.

    The wedge guarantees the signal lands inside the chunk loop;
    converting SIGTERM to SystemExit (as the CLI does) must unwind the
    analysis and take the whole process group down.
    """
    script = (
        "import signal, sys, time\n"
        "from repro.core.flatcore import FlatDetector\n"
        "from repro.pipeline import analyze_trace\n"
        "signal.signal(signal.SIGTERM, lambda s, f: sys.exit(128 + s))\n"
        "def wedged(self, *args, **kwargs):\n"
        "    print('go', flush=True)\n"
        "    time.sleep(3600)\n"
        "FlatDetector.ingest_wire = wedged\n"
        f"analyze_trace({str(mv_trace)!r})\n"
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": REPO_SRC},
        stdout=subprocess.PIPE, start_new_session=True,
    )
    try:
        assert proc.stdout.readline().strip() == b"go"
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 143
        # the whole session must be gone
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
