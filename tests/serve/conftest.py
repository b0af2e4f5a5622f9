"""Fixtures for the daemon suite: traces, schedulers, in-process servers.

Two ways to get a daemon:

* :func:`daemon` — an in-process ``ReproServer`` + ``Scheduler`` on an
  ephemeral port (fast; shares the test process, so chaos that kills
  the process cannot use it);
* :func:`spawn_daemon` — a real ``repro serve`` *subprocess*, used by
  the chaos certification where the daemon must actually die.

Every scheduler gets its own enabled obs registry so counter
assertions never see another test's increments.
"""

import importlib.util
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.obs.registry import Registry
from repro.pipeline import (
    BinaryTraceWriter,
    TraceReader,
    analyze_trace,
    record_app,
)
from repro.serve import ReproServer, Scheduler, ServeConfig

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
            "the serve runtime hung"
        )

    old = signal.signal(signal.SIGALRM, _expired)
    signal.alarm(HANG_LIMIT)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


@pytest.fixture(scope="session")
def small_trace(tmp_path_factory):
    """A quick race-free histogram run (session-scoped)."""
    path = tmp_path_factory.mktemp("serve") / "hist.trace"
    record_app("histogram", nranks=4, out=path)
    return path


@pytest.fixture(scope="session")
def chaos_trace(tmp_path_factory):
    """A racy miniVite run re-chunked small (~12 chunks).

    The chaos injectors key off checkpoint writes (one per chunk when
    a test pins ``--ckpt-every 1``), so the trace must span enough
    chunks that a kill after the 2nd checkpoint is genuinely mid-run.
    At the default, amortized placement its only checkpoint is the
    final one.
    """
    base = tmp_path_factory.mktemp("serve") / "mv_raw.trace"
    record_app("minivite", nranks=4, size=256, inject_race=True,
               out=base)
    reader = TraceReader(base)
    path = base.with_name("mv_chunked.trace")
    with BinaryTraceWriter(path, nranks=reader.nranks,
                           events_per_chunk=200) as writer:
        for event in reader:
            writer.write(event)
    return path


@pytest.fixture(scope="session")
def chaos_oracle(chaos_trace):
    """Direct (daemon-free) analysis of the chaos trace — the parity oracle."""
    return analyze_trace(chaos_trace, detector="our").to_dict()


@pytest.fixture
def make_scheduler(tmp_path):
    """Factory for schedulers with a private obs registry."""
    made = []

    def _make(state=None, **kwargs):
        sched = Scheduler(state if state is not None else tmp_path / "state",
                          **kwargs)
        sched.registry = Registry(enabled=True)
        made.append(sched)
        return sched

    yield _make
    for sched in made:
        sched.drain(timeout=5.0)


@pytest.fixture
def daemon(tmp_path):
    """Factory: in-process HTTP daemon on an ephemeral port.

    Returns ``(base_url, scheduler, httpd)``.  ``start_workers=False``
    leaves submitted jobs parked in ``queued`` — the deterministic way
    to fill the admission queue.
    """
    started = []

    def _start(state=None, *, start_workers=True, **overrides):
        state = Path(state if state is not None else tmp_path / "svc")
        config = ServeConfig(state_dir=str(state), port=0, **overrides)
        sched = Scheduler(
            state, workers=config.workers, max_queue=config.max_queue,
            tenant_cap=config.tenant_cap, retries=config.retries,
            deadline_s=config.deadline_s, max_rss_mb=config.max_rss_mb,
            ckpt_every=config.ckpt_every,
        )
        sched.registry = Registry(enabled=True)
        sched.recover()
        if start_workers:
            sched.start()
        httpd = ReproServer(config, sched)
        threading.Thread(target=httpd.serve_forever,
                         kwargs={"poll_interval": 0.05},
                         daemon=True).start()
        host, port = httpd.server_address[:2]
        started.append((httpd, sched))
        return f"http://{host}:{port}", sched, httpd

    yield _start
    for httpd, sched in started:
        httpd.shutdown()
        httpd.server_close()
        sched.drain(timeout=5.0)


@pytest.fixture
def spawn_daemon():
    """Factory: a real ``repro serve`` subprocess, discovered via serve.json.

    Returns ``(process, base_url)``.  The chaos tests need a process
    that can be SIGKILLed (or kill itself via ``REPRO_SERVE_FAULT``)
    without taking pytest down with it.
    """
    procs = []

    def _spawn(state, *extra_args, env_extra=None, startup_s=20.0):
        state = Path(state)
        state.mkdir(parents=True, exist_ok=True)
        endpoint = state / "serve.json"
        endpoint.unlink(missing_ok=True)
        env = dict(os.environ)
        if env_extra:
            env.update(env_extra)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--state", str(state),
             *extra_args],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True,
        )
        procs.append(proc)
        deadline = time.monotonic() + startup_s
        while time.monotonic() < deadline:
            if endpoint.exists():
                try:
                    info = json.loads(endpoint.read_text())
                except ValueError:
                    info = {}
                if info.get("pid") == proc.pid:
                    return proc, f"http://{info['host']}:{info['port']}"
            if proc.poll() is not None:
                raise RuntimeError(
                    f"daemon died at startup:\n{proc.stdout.read()}")
            time.sleep(0.05)
        proc.kill()
        raise RuntimeError("daemon never published serve.json")

    yield _spawn
    for proc in procs:
        if proc.poll() is None:
            proc.terminate()
            try:
                proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if proc.stdout is not None:
            proc.stdout.close()
