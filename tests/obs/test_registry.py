"""Unit tests of the repro.obs registry: instruments, spans, merge."""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.obs import BUCKET_BOUNDS, Registry, metric_key
from repro.obs.export import render_metrics, snapshot_to_json


@pytest.fixture(autouse=True)
def _fresh_registry():
    prev = obs.active()
    obs.reset(enabled=True)
    yield
    obs.set_registry(prev)


def test_counter_gauge_histogram_basics():
    reg = obs.active()
    reg.counter("c").add(3)
    reg.counter("c").inc()
    assert reg.counter("c").value == 4
    reg.gauge("g").set(5)
    reg.gauge("g").set(2)
    assert reg.gauge("g").value == 2
    assert reg.gauge("g").peak == 5
    h = reg.histogram("h")
    for v in (0, 1, 2, 3, 1000):
        h.observe(v)
    assert h.n == 5
    assert h.total == 1006
    assert h.mean == pytest.approx(201.2)


def test_labels_are_part_of_the_key():
    reg = obs.active()
    reg.counter("detector.events", tool="A").inc()
    reg.counter("detector.events", tool="B").add(2)
    snap = reg.snapshot()
    assert snap["counters"]["detector.events{tool=A}"] == 1
    assert snap["counters"]["detector.events{tool=B}"] == 2
    assert metric_key("x", {"b": "2", "a": "1"}) == "x{a=1,b=2}"


def test_histogram_bucketing_by_bit_length():
    reg = obs.active()
    h = reg.histogram("h")
    h.observe(0)   # bucket 0
    h.observe(1)   # bit_length 1 -> bucket 1 (<= 2)
    h.observe(7)   # bit_length 3 -> bucket 3 (<= 8)
    h.observe(2 ** 30)  # overflow bucket
    assert h.counts[0] == 1
    assert h.counts[1] == 1
    assert h.counts[3] == 1
    assert h.counts[-1] == 1
    assert len(h.counts) == len(BUCKET_BOUNDS) + 1


def test_spans_nest_and_attribute_time():
    reg = obs.active()
    with reg.span("outer"):
        with reg.span("inner"):
            pass
        with reg.span("inner"):
            pass
    snap = reg.snapshot()
    outer = snap["spans"]["children"]["outer"]
    assert outer["count"] == 1
    inner = outer["children"]["inner"]
    assert inner["count"] == 2
    assert 0 <= inner["total_ns"] <= outer["total_ns"]


def test_phase_ns_books_on_active_span():
    reg = obs.active()
    with reg.span("parent"):
        reg.phase_ns("phase", 1000)
        reg.phase_ns("phase", 500)
    node = reg.snapshot()["spans"]["children"]["parent"]["children"]["phase"]
    assert node["count"] == 2
    assert node["total_ns"] == 1500


def test_span_exit_survives_exception_unwind():
    reg = obs.active()
    with pytest.raises(RuntimeError):
        with reg.span("a"):
            with reg.span("b"):
                raise RuntimeError("boom")
    # stack unwound fully: a new span lands at the root again
    with reg.span("c"):
        pass
    spans = reg.snapshot()["spans"]["children"]
    assert set(spans) == {"a", "c"}


def test_disabled_registry_is_null_and_free():
    reg = Registry(enabled=False)
    reg.counter("c").add(5)
    reg.gauge("g").set(9)
    reg.histogram("h").observe(3)
    with reg.span("s"):
        pass
    snap = reg.snapshot()
    assert snap["counters"] == {}
    assert snap["gauges"] == {}
    assert snap["histograms"] == {}
    assert snap["spans"]["children"] == {}


def test_env_switch(monkeypatch):
    from repro.obs.registry import env_enabled

    for off in ("off", "0", "false", "NO", "Disabled"):
        monkeypatch.setenv("REPRO_OBS", off)
        assert not env_enabled()
    monkeypatch.setenv("REPRO_OBS", "on")
    assert env_enabled()
    monkeypatch.delenv("REPRO_OBS")
    assert env_enabled()


def test_sample_approves_one_in_mask_plus_one():
    reg = Registry(enabled=True)
    n = 3 * (Registry.SAMPLE_MASK + 1)
    assert sum(reg.sample() for _ in range(n)) == 3


def test_reset_zeroes_in_place_keeping_handles():
    reg = Registry(enabled=True)
    c = reg.counter("c")
    g = reg.gauge("g")
    h = reg.histogram("h")
    c.add(5)
    g.set(7)
    h.observe(9)
    reg.reset()
    # cached handles (the hot-path pattern) must stay live
    c.inc()
    g.set(2)
    h.observe(1)
    snap = reg.snapshot()
    assert snap["counters"]["c"] == 1
    assert snap["gauges"]["g"] == {"value": 2, "peak": 2}
    assert snap["histograms"]["h"]["n"] == 1
    assert snap["histograms"]["h"]["total"] == 1


def test_merge_folds_counters_gauges_histograms_spans():
    a = Registry(enabled=True)
    b = Registry(enabled=True)
    for reg in (a, b):
        reg.counter("c").add(2)
        reg.gauge("g").set(3)
        reg.histogram("h").observe(4)
        with reg.span("s"):
            reg.phase_ns("p", 100)
    a.merge(b.snapshot())
    snap = a.snapshot()
    assert snap["counters"]["c"] == 4
    assert snap["gauges"]["g"] == {"value": 6, "peak": 3}
    assert snap["histograms"]["h"]["n"] == 2
    s = snap["spans"]["children"]["s"]
    assert s["count"] == 2
    assert s["children"]["p"]["total_ns"] == 200


def test_scope_swaps_and_merges_back():
    outer = obs.active()
    outer.counter("c").add(1)
    with obs.scope() as inner:
        assert obs.active() is inner
        obs.counter("c").add(10)
        assert inner.counter("c").value == 10
    assert obs.active() is outer
    assert outer.counter("c").value == 11


def test_scope_discard():
    outer = obs.active()
    with obs.scope(merge=False):
        obs.counter("c").add(10)
    assert outer.counter("c").value == 0


def test_snapshot_is_stable_and_jsonable():
    reg = obs.active()
    reg.counter("b").inc()
    reg.counter("a").inc()
    text1 = snapshot_to_json(reg.snapshot())
    text2 = snapshot_to_json(reg.snapshot())
    assert text1 == text2
    decoded = json.loads(text1)
    assert decoded["schema"] == "repro-obs-v1"
    assert list(decoded["counters"]) == ["a", "b"]


def test_render_metrics_sections():
    reg = obs.active()
    reg.counter("c").add(7)
    reg.gauge("g").set(1)
    reg.histogram("h").observe(5)
    with reg.span("s"):
        pass
    text = render_metrics(reg.snapshot())
    for section in ("counters", "gauges", "histograms", "spans"):
        assert section in text
    assert "7" in text
    assert render_metrics(Registry(enabled=True).snapshot()).startswith(
        "(no metrics recorded")


def test_histogram_tracks_exact_max():
    reg = obs.active()
    h = reg.histogram("h")
    for v in (3, 500, 7):
        h.observe(v)
    assert h.vmax == 500  # exact, not the bucket bound above it
    assert reg.snapshot()["histograms"]["h"]["max"] == 500


def test_histogram_max_survives_merge():
    a, b = Registry(enabled=True), Registry(enabled=True)
    a.histogram("h").observe(9)
    b.histogram("h").observe(1000)
    a.merge(b.snapshot())
    assert a.snapshot()["histograms"]["h"]["max"] == 1000
