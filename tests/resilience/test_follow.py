"""Follow-mode chaos: live appends, timeouts, kill -9, rewritten prefixes.

``repro analyze --follow`` tails a still-growing v2 trace.  The
contract: whatever interleaving of appends, torn tails, and process
deaths happens while following, the final verdicts are byte-identical
to a from-scratch analysis of the final file — and a prefix rewritten
underneath the follow aborts with :class:`TraceDivergedError` instead
of splicing old detector state onto new history.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.faultinject import (
    append_mid_analysis,
    extend_trace,
    rewrite_prefix,
    truncate_tail_mid_append,
)
from repro.pipeline import BinaryTraceWriter, TraceDivergedError, analyze_trace

#: counters that legitimately differ between a followed and a
#: straight-through run (tail polling, resume accounting, ckpt I/O)
_BOOKKEEPING = ("pipeline.ckpt.", "incremental.")

#: a v2 trailer is TEND + u64 event count
_TRAILER = 12


def _strip(snapshot):
    out = dict(snapshot)
    out.pop("spans", None)
    out["counters"] = {
        k: v for k, v in out.get("counters", {}).items()
        if not k.startswith(_BOOKKEEPING)
    }
    return out


def assert_parity(result, baseline):
    assert json.dumps(result.verdicts, sort_keys=True) == \
        json.dumps(baseline.verdicts, sort_keys=True)
    assert result.forensics == baseline.forensics
    got, want = _strip(result.obs), _strip(baseline.obs)
    assert got["counters"] == want["counters"]
    assert result.timeline == baseline.timeline


def _behead(path):
    """Strip the trailer: the file looks like a recorder still running."""
    path.write_bytes(path.read_bytes()[:-_TRAILER])


def _finalize(path):
    """Write the trailer a dead recorder never got to."""
    BinaryTraceWriter.open_append(path).close()


@pytest.fixture
def live_trace(mv_trace, rechunk):
    """A 12-chunk copy with the trailer stripped — growth in progress."""
    path = rechunk(mv_trace, events_per_chunk=200)
    _behead(path)
    return path


def test_follow_completes_already_finished_trace(mv_trace, rechunk):
    """A trailer on disk ends the follow like any normal analysis."""
    path = rechunk(mv_trace)
    baseline = analyze_trace(path, detector="our")
    result = analyze_trace(path, detector="our", follow=True,
                           ckpt_dir=path.parent / "ck", ckpt_every=1)
    assert not result.partial
    assert result.checkpoint["stopped"] is None
    assert_parity(result, baseline)


def test_follow_requires_serial_and_ckpt_dir(mv_trace):
    with pytest.raises(ValueError):
        analyze_trace(mv_trace, follow=True)  # no ckpt_dir
    with pytest.raises(ValueError):
        analyze_trace(mv_trace, follow_timeout_s=5.0)  # needs follow


def test_follow_absorbs_live_appends(live_trace):
    """Chunks appended while following land in the same run's verdicts."""
    # the delay is deliberately long enough that the follower reaches
    # the trailerless EOF and polls before the first new chunk lands
    thread = append_mid_analysis(live_trace, fraction=0.15, delay_s=1.0,
                                 pause_s=0.1, finalize=True)
    result = analyze_trace(live_trace, detector="our", follow=True,
                           ckpt_dir=live_trace.parent / "ck", ckpt_every=1)
    thread.join(timeout=30)
    assert not thread.is_alive()
    assert not result.partial
    assert result.obs["counters"].get("incremental.tail_retries", 0) > 0
    baseline = analyze_trace(live_trace, detector="our")
    assert_parity(result, baseline)


def test_follow_timeout_leaves_resumable_partial(live_trace):
    """No growth within the budget: stop checkpointed, resume later."""
    ck = live_trace.parent / "ck"
    result = analyze_trace(live_trace, detector="our", follow=True,
                           ckpt_dir=ck, ckpt_every=1, follow_timeout_s=0.3)
    assert result.partial
    assert result.checkpoint["stopped"] == "follow-timeout"
    assert result.checkpoint["written"] > 0

    extend_trace(live_trace, fraction=0.1)
    resumed = analyze_trace(live_trace, detector="our", follow=True,
                            ckpt_dir=ck, ckpt_every=1, resume=True)
    assert not resumed.partial
    rec = resumed.checkpoint["resumed"]
    assert rec and rec[0]["chunks_skipped"] > 0
    baseline = analyze_trace(live_trace, detector="our")
    assert json.dumps(resumed.verdicts, sort_keys=True) == \
        json.dumps(baseline.verdicts, sort_keys=True)
    assert resumed.forensics == baseline.forensics


def test_follow_tolerates_torn_tail_then_growth(live_trace):
    """A recorder crash mid-append is 'wait', not 'corrupt'."""
    truncate_tail_mid_append(live_trace, keep_fraction=0.4)
    thread = append_mid_analysis(live_trace, fraction=0.1, delay_s=0.2,
                                 finalize=True)
    result = analyze_trace(live_trace, detector="our", follow=True,
                           ckpt_dir=live_trace.parent / "ck", ckpt_every=1)
    thread.join(timeout=30)
    assert not result.partial
    baseline = analyze_trace(live_trace, detector="our")
    assert_parity(result, baseline)


def test_resume_refuses_rewritten_prefix(mv_trace, rechunk):
    """Self-consistently rewritten history diverges — never resumes."""
    path = rechunk(mv_trace)
    ck = path.parent / "ck"
    analyze_trace(path, detector="our", ckpt_dir=ck, ckpt_every=1)
    rewrite_prefix(path, chunk=3, seed=7)
    # the file passes its own checksums — only the retained cursor knows
    analyze_trace(path, detector="our")  # fresh run: fine
    with pytest.raises(TraceDivergedError) as exc:
        analyze_trace(path, detector="our", ckpt_dir=ck,
                      resume=True)
    # the cursor proves divergence at its own chunk; the rewrite sits
    # at or before it
    assert exc.value.chunk is not None and exc.value.chunk >= 3


def test_follow_detects_shrunken_file(live_trace):
    """A file shrinking below the cursor is divergence, not patience."""
    ck = live_trace.parent / "ck"
    analyze_trace(live_trace, detector="our", follow=True,
                  ckpt_dir=ck, ckpt_every=1, follow_timeout_s=0.2)
    # chop off everything after chunk 2: shorter than the cursor
    from repro.faultinject import chunk_index
    chunks = chunk_index(live_trace)
    live_trace.write_bytes(
        live_trace.read_bytes()[:chunks[1].payload_pos + chunks[1].nbytes])
    with pytest.raises(TraceDivergedError):
        analyze_trace(live_trace, detector="our", follow=True,
                      ckpt_dir=ck, ckpt_every=1, resume=True,
                      follow_timeout_s=0.2)


_CHILD = """
import sys
from repro.pipeline import analyze_trace
analyze_trace(sys.argv[1], detector="our", follow=True,
              ckpt_dir=sys.argv[2], ckpt_every=1, resume=True)
"""


def test_kill9_mid_follow_resumes_byte_identical(live_trace, tmp_path):
    """SIGKILL the follower, finalize the trace, resume: exact verdicts."""
    ck = tmp_path / "ck"
    ck.mkdir()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(p) for p in sys.path if p] or [])
    child = subprocess.Popen(
        [sys.executable, "-c", _CHILD, str(live_trace), str(ck)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline = time.time() + 60
        while not list(ck.glob("serial-*.ckpt")):
            assert child.poll() is None, "follower exited before checkpoint"
            assert time.time() < deadline, "no checkpoint appeared"
            time.sleep(0.05)
        # feed it a little growth, then kill it mid-flight
        extend_trace(live_trace, fraction=0.05)
        _behead(live_trace)
        time.sleep(0.3)
    finally:
        child.kill()
        child.wait(timeout=30)

    extend_trace(live_trace, fraction=0.05)
    result = analyze_trace(live_trace, detector="our", follow=True,
                           ckpt_dir=ck, ckpt_every=1, resume=True)
    assert not result.partial
    rec = result.checkpoint["resumed"]
    assert rec and rec[0]["chunks_skipped"] > 0
    baseline = analyze_trace(live_trace, detector="our")
    assert json.dumps(result.verdicts, sort_keys=True) == \
        json.dumps(baseline.verdicts, sort_keys=True)
    assert result.forensics == baseline.forensics
