"""Shared fixtures: recorded app traces (expensive — session-scoped)."""

import pytest

from repro.pipeline import record_app


@pytest.fixture(scope="session")
def minivite_trace(tmp_path_factory):
    """A racy miniVite run, recorded as a repro-trace-v2 file."""
    path = tmp_path_factory.mktemp("traces") / "mv.trace"
    record_app("minivite", nranks=4, size=256, inject_race=True, out=path)
    return path


@pytest.fixture(scope="session")
def cfd_trace(tmp_path_factory):
    """A CFD-Proxy run, recorded as a repro-trace-v2 file."""
    path = tmp_path_factory.mktemp("traces") / "cfd.trace"
    record_app("cfd", nranks=4, size=4, out=path)
    return path
