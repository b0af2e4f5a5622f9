"""Chaos-suite fixtures: recorded traces, re-chunked copies, a hang guard.

Every test in this package injects faults into the analysis runtime —
hard kills, deadline and memory stops, a growing or rewritten trace,
on-disk corruption — so the one failure mode the suite must never
exhibit itself is *hanging*.  CI runs with ``pytest-timeout``; when the
plugin is not installed (plain local runs), the autouse
:func:`hang_guard` fixture arms a SIGALRM fallback so a regressed
follow loop still fails the test instead of wedging pytest.
"""

import importlib.util
import signal

import pytest

from repro.pipeline import BinaryTraceWriter, TraceReader, record_app

#: hard per-test wall-clock ceiling (seconds) — generous: the slowest
#: chaos test is a follow timeout, well under a minute
HANG_LIMIT = 120

_HAVE_PYTEST_TIMEOUT = importlib.util.find_spec("pytest_timeout") is not None


@pytest.fixture(autouse=True)
def hang_guard(request):
    """SIGALRM fallback for environments without pytest-timeout."""
    if _HAVE_PYTEST_TIMEOUT:
        yield
        return

    def _expired(signum, frame):
        raise TimeoutError(
            f"{request.node.nodeid} exceeded {HANG_LIMIT}s — "
            "the resilience runtime hung"
        )

    old = signal.signal(signal.SIGALRM, _expired)
    signal.alarm(HANG_LIMIT)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


@pytest.fixture(scope="session")
def mv_trace(tmp_path_factory):
    """A racy miniVite run (session-scoped)."""
    path = tmp_path_factory.mktemp("chaos") / "mv.trace"
    record_app("minivite", nranks=4, size=256, inject_race=True, out=path)
    return path


@pytest.fixture(scope="session")
def cfd_trace(tmp_path_factory):
    """A CFD-Proxy run (session-scoped)."""
    path = tmp_path_factory.mktemp("chaos") / "cfd.trace"
    record_app("cfd", nranks=4, size=4, out=path)
    return path


@pytest.fixture(scope="session")
def serial_verdicts(mv_trace):
    """Canonical verdicts of an unfaulted analysis — the parity oracle."""
    from repro.pipeline import analyze_trace

    return analyze_trace(mv_trace, detector="our").verdicts


@pytest.fixture
def rechunk(tmp_path):
    """Factory: copy a v2 trace re-chunked small, so tests get many chunks.

    The default 2048 events/chunk puts a whole size-256 recording into
    two chunks; corruption tests want a dozen targets.  Returns the
    copy's path — per-test, so corruptors can damage it freely.
    """

    def _rechunk(src, events_per_chunk=200):
        reader = TraceReader(src)
        dst = tmp_path / f"rechunk_{events_per_chunk}.trace"
        with BinaryTraceWriter(dst, nranks=reader.nranks,
                               events_per_chunk=events_per_chunk) as writer:
            for event in reader:
                writer.write(event)
        return dst

    return _rechunk
