"""Checkpoint cross-compatibility between the two detector cores.

``repro-ckpt-v1`` detector snapshots carry the writing class: the flat
core (the one every entry point builds) serializes stores in the
``repro-flat-bst-v3`` column layout, the object core (the reference
oracle) pickles ``IntervalBST`` state.  A snapshot must only ever resume
on the core that wrote it — restoring across cores raises the generic
class check's ``ValueError``, naming both classes, before any state is
touched; the CLI and serve refuse it like any other unusable
checkpoint.  A silent wrong-resume (empty stores, zeroed stats, missed
races) is the failure mode this file exists to make impossible.
"""

import pickle

import pytest

from repro.core import FlatDetector, OurDetector
from repro.pipeline import TraceReader
from repro.pipeline.shard import dispatch_event


def _mid_replay(det, mv_trace):
    """Feed half the trace so the snapshot carries real store state."""
    reader = TraceReader(mv_trace)
    events = list(reader)
    for event in events[: len(events) // 2]:
        dispatch_event(det, event, reader.nranks)
    return det


def test_object_snapshot_rejected_by_flat_core(mv_trace):
    snap = pickle.loads(pickle.dumps(
        _mid_replay(OurDetector(), mv_trace).snapshot()))
    assert snap["class"] == "OurDetector"
    with pytest.raises(ValueError, match=(
            "checkpoint is for detector 'OurDetector', not 'FlatDetector'")):
        FlatDetector().restore(snap)


def test_flat_snapshot_rejected_by_object_core(mv_trace):
    snap = pickle.loads(pickle.dumps(
        _mid_replay(FlatDetector(), mv_trace).snapshot()))
    assert snap["class"] == "FlatDetector"
    with pytest.raises(ValueError, match=(
            "checkpoint is for detector 'FlatDetector', not 'OurDetector'")):
        OurDetector().restore(snap)


def test_rejection_leaves_no_partial_state(mv_trace):
    """A rejected cross-core restore must not half-populate the
    detector — a later run would silently mix cores' state."""
    snap = _mid_replay(OurDetector(), mv_trace).snapshot()
    det = FlatDetector()
    with pytest.raises(ValueError):
        det.restore(snap)
    assert not det._stores
    assert not det.reports
    assert det.node_stats().accesses_processed == 0


def test_flat_snapshot_resumes_on_flat_core(mv_trace):
    """Same-core resume stays byte-identical to an uninterrupted run
    (the class check must not over-reject)."""
    reader = TraceReader(mv_trace)
    events = list(reader)
    nranks = reader.nranks
    cut = len(events) // 2

    straight = FlatDetector()
    for event in events:
        dispatch_event(straight, event, nranks)
    straight.finalize()

    first = FlatDetector()
    for event in events[:cut]:
        dispatch_event(first, event, nranks)
    snap = pickle.loads(pickle.dumps(first.snapshot()))
    resumed = FlatDetector()
    resumed.restore(snap)
    for event in events[cut:]:
        dispatch_event(resumed, event, nranks)
    resumed.finalize()

    assert len(resumed.reports) == len(straight.reports)
    for a, b in zip(resumed.reports, straight.reports):
        assert (a.rank, a.window, a.stored, a.new) == \
            (b.rank, b.window, b.stored, b.new)
    assert resumed.node_stats() == straight.node_stats()
