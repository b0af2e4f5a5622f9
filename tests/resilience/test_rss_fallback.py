"""The RSS probe reads current memory, and degrades gracefully.

The memory guard is telemetry, not correctness: on a platform where
neither ``/proc/self/statm`` nor ``getrusage`` works, an analysis with
``--max-rss-mb`` must warn once, disable the guard, and run to a full
verdict — never die on the probe itself.  Where ``/proc`` is missing
but ``getrusage`` works, the probe falls back to the lifetime peak.
"""

import sys
import warnings

import pytest

import repro.pipeline.checkpoint as ckpt_mod
from repro.pipeline import analyze_trace


class _BrokenResource:
    RUSAGE_SELF = 0

    @staticmethod
    def getrusage(who):
        raise OSError("rusage unavailable on this platform")


@pytest.fixture
def no_proc(monkeypatch, tmp_path):
    monkeypatch.setattr(ckpt_mod, "_STATM", str(tmp_path / "no-statm"))


@pytest.fixture
def broken_resource(monkeypatch, no_proc):
    monkeypatch.setitem(sys.modules, "resource", _BrokenResource())
    monkeypatch.setattr(ckpt_mod, "_rss_unavailable_warned", False)


def test_probe_returns_none_and_warns_once(broken_resource):
    with pytest.warns(RuntimeWarning, match="memory guard is disabled"):
        assert ckpt_mod.current_rss_mb() is None
    # second read: still None, but silent — one warning per process
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ckpt_mod.current_rss_mb() is None


def test_probe_works_on_this_platform():
    assert ckpt_mod.current_rss_mb() > 0


def test_probe_without_proc_falls_back_to_the_peak(no_proc):
    import resource

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    want = peak / (1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0)
    assert ckpt_mod.current_rss_mb() == pytest.approx(want, rel=0.05)


def test_memory_guard_disables_instead_of_dying(
        broken_resource, mv_trace, serial_verdicts, tmp_path):
    with pytest.warns(RuntimeWarning, match="memory guard is disabled"):
        result = analyze_trace(mv_trace, detector="our",
                               ckpt_dir=tmp_path / "ck", ckpt_every=1,
                               max_rss_mb=1)
    # an absurdly low watermark would stop every chunk if the guard were
    # live; with the probe gone the run completes — full, correct verdicts
    assert not result.partial
    assert result.verdicts == serial_verdicts
