"""Metrics-correctness: registry values vs independently computed truths.

The observability layer is only useful if its numbers are *right*:

* the ``bst.nodes`` gauge must equal an O(n) walk over the detector's
  live trees,
* the pipeline's ``events.analyzed`` counter must match what the trace
  reader actually decoded,
* in the span time-tree, children can never sum to more than their
  parent's wall time.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.core import OurDetector
from repro.pipeline import analyze_trace, record_app
from repro.pipeline.format import TraceReader


@pytest.fixture(autouse=True)
def _fresh_registry():
    prev = obs.active()
    obs.reset(enabled=True)
    yield
    obs.set_registry(prev)


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    out = tmp_path_factory.mktemp("obs") / "hist.trace"
    record_app("histogram", nranks=4, out=str(out))
    return str(out)


def test_bst_nodes_gauge_matches_tree_walk(make_acc):
    from repro.intervals import AccessType

    det = OurDetector()
    with obs.scope() as reg:
        # distinct lines and a gap between intervals: nothing merges,
        # so the walk must count every access individually
        for i in range(6):
            det._record(0, 0, make_acc(10 * i, 10 * i + 4,
                                       AccessType.RMA_WRITE, line=i))
        for i in range(4):
            det._record(1, 0, make_acc(10 * i, 10 * i + 4,
                                       AccessType.LOCAL_READ, line=i))
        det.publish_obs()
        gauge = reg.snapshot()["gauges"][
            obs.metric_key("bst.nodes", {"tool": det.name})]
    walked = sum(
        sum(1 for _ in bst) for bst in det._stores.values()
    )
    assert walked == 10
    assert gauge["value"] == walked


def test_query_fanout_histogram_matches_tree_stats(make_acc):
    from repro.intervals import AccessType

    det = OurDetector()
    with obs.scope() as reg:
        for i in range(20):
            det._record(0, 0, make_acc(3 * i, 3 * i + 2,
                                       AccessType.RMA_WRITE, line=i % 3))
        det.publish_obs()
        snap = reg.snapshot()
    queries = sum(b.stats.queries for b in det._stores.values())
    hits = sum(b.stats.query_hits for b in det._stores.values())
    assert queries > 0
    ckey = obs.metric_key("bst.queries", {"tool": det.name})
    hkey = obs.metric_key("bst.query_fanout", {"tool": det.name})
    assert snap["counters"][ckey] == queries
    assert snap["histograms"][hkey]["n"] == queries
    assert snap["histograms"][hkey]["total"] == hits


def test_serial_events_analyzed_matches_reader(trace_path):
    reader_count = sum(1 for _ in TraceReader(trace_path))
    result = analyze_trace(trace_path)
    counters = result.obs["counters"]
    assert result.events_total == reader_count
    assert counters["pipeline.events.read"] == reader_count
    assert counters["pipeline.events.analyzed"] == reader_count


def _assert_children_bounded(node, path):
    child_sum = sum(
        c["total_ns"] for c in node.get("children", {}).values()
    )
    assert child_sum <= node["total_ns"], (path, node)
    for name, child in node.get("children", {}).items():
        _assert_children_bounded(child, f"{path}/{name}")


def test_span_tree_children_sum_within_parent(trace_path):
    result = analyze_trace(trace_path)
    spans = result.obs["spans"]
    for name, child in spans["children"].items():
        _assert_children_bounded(child, name)


def test_detector_counters_flow_back_from_workers(trace_path):
    """The detector's published counters land in the result's snapshot."""
    result = analyze_trace(trace_path)
    counters = result.obs["counters"]
    key = obs.metric_key("detector.processed", {"tool": "Our Contribution"})
    total = sum(s.processed for s in result.shard_stats)
    assert counters[key] == total


def test_disabled_run_has_no_snapshot(trace_path):
    obs.reset(enabled=False)
    result = analyze_trace(trace_path)
    assert result.obs is None
    assert result.races == 0  # verdicts unaffected by the switch
