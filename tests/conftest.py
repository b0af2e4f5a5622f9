"""Shared fixtures and helpers for the whole test suite."""

from __future__ import annotations

import pytest

from repro.intervals import AccessType, DebugInfo, Interval, MemoryAccess


def acc(
    lo: int,
    hi: int,
    type: AccessType = AccessType.LOCAL_READ,
    *,
    file: str = "t.c",
    line: int = 1,
    origin: int = 0,
    flush_gen: int = 0,
) -> MemoryAccess:
    """Terse MemoryAccess factory used across the suite."""
    return MemoryAccess(
        Interval(lo, hi), type, DebugInfo(file, line), origin, 0, flush_gen
    )


@pytest.fixture
def make_acc():
    return acc


def _record_minivite(tmp_path_factory, size: int):
    from repro.pipeline import record_app

    path = tmp_path_factory.mktemp("mv") / f"mv{size}.trace"
    record_app("minivite", nranks=4, size=size, inject_race=True, out=path)
    return path


@pytest.fixture(scope="session")
def mv4096_trace(tmp_path_factory):
    """The 36,895-event, 19-chunk racy miniVite trace the benches use."""
    return _record_minivite(tmp_path_factory, 4096)


@pytest.fixture(scope="session")
def mv8192_trace(tmp_path_factory):
    """A 73,755-event racy miniVite trace: long enough that the
    amortized rule checkpoints mid-trace (at 40,960 events)."""
    return _record_minivite(tmp_path_factory, 8192)


# re-export the enum members as conveniences for test modules
LR = AccessType.LOCAL_READ
LW = AccessType.LOCAL_WRITE
RR = AccessType.RMA_READ
RW = AccessType.RMA_WRITE
