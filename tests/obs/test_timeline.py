"""Unit tests of the bounded per-rank timeline (repro.obs.timeline)."""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.intervals import AccessType
from repro.mpi.memory import RegionInfo, RegionKind
from repro.mpi.trace import LocalEvent, RmaEvent, SyncEvent, SyncKind
from repro.obs.registry import Registry
from repro.obs.timeline import (
    DEFAULT_CAP,
    Timeline,
    make_timeline,
    timeline_cap_from_env,
    timeline_context,
)
from tests.conftest import acc

_REGION = RegionInfo(RegionKind.WINDOW, True)


def local(seq, rank, lo=0, hi=8, type=AccessType.LOCAL_WRITE, line=1):
    return LocalEvent(seq, rank, acc(lo, hi, type, line=line), _REGION)


def rma(seq, rank, target, lo=0, hi=8, op="put", wid=0):
    return RmaEvent(
        seq, rank, op, target, wid,
        acc(lo, hi, AccessType.RMA_WRITE, origin=rank),
        acc(lo + 100, hi + 100, AccessType.RMA_WRITE, origin=rank),
        _REGION,
    )


def sync(seq, rank, kind=SyncKind.BARRIER, wid=-1):
    return SyncEvent(seq, rank, kind, wid)


# -- env knob ----------------------------------------------------------------


def test_cap_from_env_default_when_unset(monkeypatch):
    monkeypatch.delenv("REPRO_OBS_TIMELINE", raising=False)
    assert timeline_cap_from_env() == DEFAULT_CAP


@pytest.mark.parametrize("value", ["off", "0", "false", "no", "disabled"])
def test_cap_from_env_off_values(monkeypatch, value):
    monkeypatch.setenv("REPRO_OBS_TIMELINE", value)
    assert timeline_cap_from_env() == 0


@pytest.mark.parametrize("value", ["on", "true", "yes", "", "default"])
def test_cap_from_env_on_values(monkeypatch, value):
    monkeypatch.setenv("REPRO_OBS_TIMELINE", value)
    assert timeline_cap_from_env() == DEFAULT_CAP


def test_cap_from_env_explicit_size(monkeypatch):
    """The ring size is fixed: a number other than 0 warns and keeps
    the 128-event ring."""
    monkeypatch.setenv("REPRO_OBS_TIMELINE", "32")
    with pytest.warns(RuntimeWarning, match="REPRO_OBS_TIMELINE"):
        assert timeline_cap_from_env() == DEFAULT_CAP == 128


def test_cap_from_env_garbage_warns_and_falls_back(monkeypatch):
    monkeypatch.setenv("REPRO_OBS_TIMELINE", "not-a-size-xyz")
    with pytest.warns(RuntimeWarning, match="REPRO_OBS_TIMELINE"):
        assert timeline_cap_from_env() == DEFAULT_CAP


def test_make_timeline_null_when_disabled(monkeypatch):
    assert make_timeline(enabled=False) is None
    monkeypatch.setenv("REPRO_OBS_TIMELINE", "off")
    assert make_timeline(enabled=True) is None
    monkeypatch.setenv("REPRO_OBS_TIMELINE", "on")
    tl = make_timeline(enabled=True)
    assert isinstance(tl, Timeline) and tl.cap == DEFAULT_CAP


# -- recording ---------------------------------------------------------------


def test_ring_is_bounded_keeps_newest():
    tl = Timeline(4)
    for i in range(10):
        tl.record(0, "local", 0, payload=None, seq=i)
    events = tl.lane_events(0)
    assert len(events) == 4
    assert [e["seq"] for e in events] == [6, 7, 8, 9]


def test_live_feed_autoseq_is_monotonic():
    tl = Timeline(8)
    tl.record(0, "local", 0)
    tl.record(0, "local", 0)
    seqs = [e["seq"] for e in tl.lane_events(0)]
    assert seqs == sorted(seqs) and len(set(seqs)) == 2


def test_record_sync_replicates_with_shared_seq():
    tl = Timeline(8)
    tl.record_sync("barrier", -1, -1, lanes=(0, 1, 2), seq=7)
    for lane in (0, 1, 2):
        (event,) = tl.lane_events(lane)
        assert event == {"seq": 7, "kind": "barrier", "rank": -1, "wid": -1}


def test_record_rma_records_each_side_on_its_lane():
    tl = Timeline(8)
    origin = acc(0, 8, AccessType.RMA_WRITE, origin=0)
    target = acc(100, 108, AccessType.RMA_WRITE, origin=0)
    tl.record_rma("put", 0, 2, 0, origin, target, seq=5)
    (on_origin,) = tl.lane_events(0)
    (on_target,) = tl.lane_events(2)
    assert on_origin["lo"] == 0 and on_target["lo"] == 100
    assert on_origin["seq"] == on_target["seq"] == 5
    assert on_origin["op"] == on_target["op"] == "put"


def test_record_rma_self_target_records_window_side_once():
    tl = Timeline(8)
    origin = acc(0, 8, AccessType.RMA_WRITE)
    target = acc(100, 108, AccessType.RMA_WRITE)
    tl.record_rma("put", 1, 1, 0, origin, target, seq=3)
    assert tl.lanes() == [1]
    (event,) = tl.lane_events(1)
    assert event["lo"] == 100  # the window (target) side


def test_record_event_fanout_projection():
    tl = Timeline(8)
    tl.record_event_fanout(local(1, 2), nranks=4)
    tl.record_event_fanout(rma(2, 0, 3), nranks=4)
    tl.record_event_fanout(sync(3, -1), nranks=4)
    assert tl.lanes() == [0, 1, 2, 3]
    # local only on its own lane; rma on both sides; sync everywhere
    assert [e["seq"] for e in tl.lane_events(1)] == [3]
    assert [e["seq"] for e in tl.lane_events(2)] == [1, 3]
    assert [e["seq"] for e in tl.lane_events(0)] == [2, 3]
    assert [e["seq"] for e in tl.lane_events(3)] == [2, 3]


def test_replayed_rma_formats_the_lane_side():
    tl = Timeline(8)
    event = rma(1, 0, 2, lo=0)
    tl.record_event(0, event)
    tl.record_event(2, event)
    (origin_view,) = tl.lane_events(0)
    (target_view,) = tl.lane_events(2)
    assert origin_view["lo"] == 0       # origin access on origin lane
    assert target_view["lo"] == 100     # target access on target lane


def test_replayed_sync_formats_kind_value():
    tl = Timeline(8)
    tl.record_event(0, sync(4, 1, SyncKind.LOCK_ALL, wid=0))
    (event,) = tl.lane_events(0)
    assert event == {"seq": 4, "kind": "lock_all", "rank": 1, "wid": 0}


# -- snapshot / merge / absorb -----------------------------------------------


def test_snapshot_is_jsonable_and_stable():
    tl = Timeline(8)
    tl.record_event_fanout(local(1, 0), nranks=2)
    tl.record_event_fanout(sync(2, -1), nranks=2)
    snap = tl.snapshot()
    assert snap["schema"] == "repro-timeline-v1"
    assert snap["cap"] == 8
    assert json.loads(json.dumps(snap)) == snap
    assert tl.snapshot() == snap


def test_merge_unions_by_seq_and_trims_to_cap():
    a = Timeline(4)
    for i in (1, 3, 5):
        a.record(0, "local", 0, seq=i)
    b = Timeline(4)
    for i in (2, 4, 6):
        b.record(0, "local", 0, seq=i)
    a.merge(b.snapshot())
    assert [e["seq"] for e in a.lane_events(0)] == [3, 4, 5, 6]


def test_absorb_matches_merge_of_snapshot():
    def fill(tl, seqs):
        for i in seqs:
            tl.record_event_fanout(local(i, 0), nranks=1)

    via_absorb, inner_a = Timeline(4), Timeline(4)
    fill(via_absorb, (1, 3)); fill(inner_a, (2, 4, 5))
    via_absorb.absorb(inner_a)

    via_merge, inner_b = Timeline(4), Timeline(4)
    fill(via_merge, (1, 3)); fill(inner_b, (2, 4, 5))
    via_merge.merge(inner_b.snapshot())

    assert via_absorb.snapshot() == via_merge.snapshot()


def test_absorb_into_empty_lane_copies():
    inner = Timeline(4)
    inner.record_event_fanout(local(1, 0), nranks=1)
    outer = Timeline(4)
    outer.absorb(inner)
    assert outer.snapshot()["lanes"] == inner.snapshot()["lanes"]


# -- an off timeline ---------------------------------------------------------


def test_null_timeline_is_inert(monkeypatch):
    """An off timeline is ``None``: registries hold none, scopes fold
    nothing into it, and forensics views are empty."""
    assert Registry(enabled=False).timeline is None
    monkeypatch.setenv("REPRO_OBS_TIMELINE", "off")
    with obs.scope(Registry(enabled=True), merge=False) as outer:
        assert outer.timeline is None
        with obs.scope(Registry(enabled=True)) as inner:
            assert obs.timeline() is inner.timeline is None
    monkeypatch.setenv("REPRO_OBS_TIMELINE", "on")
    with obs.scope(Registry(enabled=True), merge=False) as outer:
        with obs.scope(Registry(enabled=True)) as inner:
            inner.timeline.record_event_fanout(local(1, 0), nranks=1)
        assert len(outer.timeline) == 1
    assert timeline_context(None, 0, ranks=(0, 1), k=4) == {
        "lane": 0, "cap": 0, "k": 4, "views": {"0": [], "1": []}}


# -- forensics context views -------------------------------------------------


def test_context_keeps_last_k_of_each_rank():
    tl = Timeline(64)
    for i in range(20):
        tl.record_event(0, local(i + 1, rank=i % 2))
    ctx = timeline_context(tl, 0, ranks=(0, 1), k=3)
    assert ctx["lane"] == 0 and ctx["k"] == 3
    assert [e["seq"] for e in ctx["views"]["0"]] == [15, 17, 19]
    assert [e["seq"] for e in ctx["views"]["1"]] == [16, 18, 20]


def test_context_promotes_enclosing_epoch_older_than_k():
    tl = Timeline(64)
    tl.record_event(0, sync(1, 0, SyncKind.LOCK_ALL, wid=0))
    for i in range(10):
        tl.record_event(0, local(i + 2, rank=0))
    ctx = timeline_context(tl, 0, ranks=(0,), k=4)
    view = ctx["views"]["0"]
    # the lock_all is promoted in front of the k most recent events
    assert view[0]["kind"] == "lock_all" and view[0]["seq"] == 1
    assert [e["seq"] for e in view[1:]] == [8, 9, 10, 11]


def test_context_epoch_inside_window_is_not_duplicated():
    tl = Timeline(64)
    tl.record_event(0, local(1, rank=0))
    tl.record_event(0, sync(2, 0, SyncKind.LOCK_ALL, wid=0))
    tl.record_event(0, local(3, rank=0))
    ctx = timeline_context(tl, 0, ranks=(0,), k=4)
    seqs = [e["seq"] for e in ctx["views"]["0"]]
    assert seqs == [1, 2, 3]


def test_context_other_ranks_see_world_sync():
    tl = Timeline(64)
    tl.record_event(0, local(1, rank=0))
    tl.record_event(0, sync(2, -1, SyncKind.BARRIER))
    ctx = timeline_context(tl, 0, ranks=(3,), k=4)
    # rank 3 has no events of its own in lane 0, but world sync shows
    assert [e["kind"] for e in ctx["views"]["3"]] == ["barrier"]


def test_context_empty_lane_gives_empty_views():
    tl = Timeline(8)
    ctx = timeline_context(tl, 5, ranks=(0, 1), k=4)
    assert ctx["views"] == {"0": [], "1": []}
