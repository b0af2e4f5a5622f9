"""The amortized checkpoint placement rule.

Placement is a pure function of the events applied and the live store
rows: no clock input, so two runs of a trace checkpoint at the same
cursors and a seeded ``kill-after-ckpt:N`` plan stops at the same point
every time.  Placed snapshots stay within the rule's share of analysis
work, the gap between checkpoints within the worst-case redo DESIGN.md
§11 states, and a run that ends normally always leaves a final
checkpoint at its last cursor.
"""

import shutil
import time

import pytest

from repro.core.flatcore import FlatDetector
from repro.pipeline import CheckpointStore, analyze_trace
from repro.pipeline.checkpoint import (
    CKPT_AMORTIZE,
    add_write_hook,
    checkpoint_due,
    remove_write_hook,
    snapshot_cost,
)

from .test_checkpoint import assert_parity

#: events per chunk of a recorded trace (``TraceWriter`` default)
CHUNK_EVENTS = 2048


@pytest.fixture
def cursors():
    """``events_applied`` of every checkpoint written while it is live."""
    seen = []

    def hook(lane, seq, path):
        blob = path.read_bytes()
        header, _ = CheckpointStore._read_header(path, blob, 8)
        seen.append(header["meta"]["events_applied"])

    add_write_hook(hook)
    yield seen
    remove_write_hook(hook)


# -- the rule on its own ------------------------------------------------------

def _placed(rows_at, chunk=CHUNK_EVENTS, chunks=400):
    """Run the rule over ``chunks`` boundaries: the events, the placed
    snapshots' modelled costs, and the final snapshot's."""
    events = since = 0
    costs = []
    for _ in range(chunks):
        events += chunk
        since += chunk
        rows = rows_at(events)
        if checkpoint_due(since, rows):
            costs.append(snapshot_cost(rows))
            since = 0
    return events, costs, snapshot_cost(rows_at(events))


@pytest.mark.parametrize("rows_at", [
    lambda e: 0,                        # nothing stays live
    lambda e: 5_000,                    # a plateau
    lambda e: e // 3,                   # miniVite: barely merges
    lambda e: e,                        # one row per event
    lambda e: (e % 50_000) // 2,        # stores freed every 50k events
], ids=["empty", "plateau", "minivite", "row-per-event", "sawtooth"])
def test_rule_keeps_modelled_snapshot_work_within_budget(rows_at):
    events, costs, final = _placed(rows_at)
    # every placed snapshot is paid for by K times its cost in analysis
    assert sum(costs) <= events / CKPT_AMORTIZE <= 0.05 * events
    # the final checkpoint comes on top and still fits in a long run
    if events >= 100 * final:
        assert sum(costs) + final <= 0.05 * events


def test_rule_threshold_grows_with_the_state():
    assert checkpoint_due(10**9, 0)
    assert not checkpoint_due(0, 0)
    threshold = CKPT_AMORTIZE * snapshot_cost(1000)
    assert checkpoint_due(int(threshold) + 1, 1000)
    assert not checkpoint_due(int(threshold) - 1, 1000)
    # more live state means a dearer snapshot, so a later checkpoint
    assert not checkpoint_due(int(threshold) + 1, 100_000)


# -- the rule in a run --------------------------------------------------------

def test_placement_is_reproducible_without_a_clock(mv8192_trace, tmp_path,
                                                   cursors, monkeypatch):
    analyze_trace(mv8192_trace, ckpt_dir=tmp_path / "a")
    first = list(cursors)
    assert len(first) >= 2 and first[0] < first[-1], first

    # a clock that leaps on every read must not move a single checkpoint
    real_time, real_perf = time.time, time.perf_counter
    leap = {"n": 0}

    def leaping(real):
        def now():
            leap["n"] += 1
            return real() + 1000.0 * leap["n"]
        return now

    monkeypatch.setattr(time, "time", leaping(real_time))
    monkeypatch.setattr(time, "perf_counter", leaping(real_perf))
    del cursors[:]
    analyze_trace(mv8192_trace, ckpt_dir=tmp_path / "b")
    monkeypatch.undo()
    assert cursors == first


@pytest.mark.parametrize("every", [None, 4])
def test_normal_end_leaves_a_final_checkpoint(mv4096_trace, tmp_path, every):
    ck = tmp_path / "ck"
    result = analyze_trace(mv4096_trace, ckpt_dir=ck, ckpt_every=every)
    assert not result.partial and result.checkpoint["written"] >= 1
    header, state = CheckpointStore(ck).load_latest()
    assert header["meta"]["events_applied"] == result.events_total
    assert state["cursor"]["events_applied"] == result.events_total


def test_largest_gap_is_within_the_stated_redo(mv4096_trace, tmp_path,
                                               cursors, monkeypatch):
    rows = []
    real = FlatDetector.state_rows

    def watched(self):
        rows.append(real(self))
        return rows[-1]

    monkeypatch.setattr(FlatDetector, "state_rows", watched)
    result = analyze_trace(mv4096_trace, ckpt_dir=tmp_path / "ck")
    assert rows, "the rule never sized the state"
    assert cursors[-1] == result.events_total
    gaps = [b - a for a, b in zip([0] + cursors, cursors)]
    # DESIGN.md §11: K x the modelled snapshot cost at the live-row
    # peak, plus less than one chunk
    redo = CKPT_AMORTIZE * snapshot_cost(max(rows)) + CHUNK_EVENTS - 1
    assert max(gaps) <= redo, (gaps, redo)


def test_reported_cadence(mv4096_trace, tmp_path):
    rule = analyze_trace(mv4096_trace, ckpt_dir=tmp_path / "rule")
    pinned = analyze_trace(mv4096_trace, ckpt_dir=tmp_path / "pinned",
                           ckpt_every=3)
    assert rule.to_dict()["checkpoint"]["every"] is None
    assert pinned.to_dict()["checkpoint"]["every"] == 3
    assert pinned.checkpoint["written"] > rule.checkpoint["written"]


def test_both_cadences_match_a_plain_run(mv8192_trace, tmp_path):
    plain = analyze_trace(mv8192_trace)
    for every in (None, 1):
        r = analyze_trace(mv8192_trace, ckpt_dir=tmp_path / f"ck{every}",
                          ckpt_every=every)
        assert_parity(r, plain)


def test_resume_from_the_rules_checkpoint_matches(mv8192_trace, tmp_path,
                                                  cursors):
    """Resume from the first mid-trace checkpoint, as after a kill
    right after it: a copy taken when it is written, wherever the rule
    places later ones (the store prunes to two generations)."""
    plain = analyze_trace(mv8192_trace)
    kept = tmp_path / "first"
    kept.mkdir()

    def keep_first(lane, seq, path):
        # write hooks run after the prune, so the new file is on disk
        if not any(kept.iterdir()):
            shutil.copy(path, kept / path.name)

    add_write_hook(keep_first)
    try:
        analyze_trace(mv8192_trace, ckpt_dir=tmp_path / "ck")
    finally:
        remove_write_hook(keep_first)
    first = cursors[0]
    assert first < plain.events_total
    header, _ = CheckpointStore(kept).load_latest()
    assert header["meta"]["events_applied"] == first
    resumed = analyze_trace(mv8192_trace, ckpt_dir=kept, resume=True)
    assert resumed.checkpoint["resumed"][0]["events_skipped"] == first
    assert_parity(resumed, plain)


# -- recovery at the default cadence ------------------------------------------

@pytest.mark.parametrize("guard", [{"deadline_s": 1e-6}, {"max_rss_mb": 1}],
                         ids=["deadline", "memory"])
def test_guard_stop_at_the_default_resumes_to_parity(mv8192_trace, tmp_path,
                                                     guard):
    plain = analyze_trace(mv8192_trace)
    ck = tmp_path / "ck"
    partial = analyze_trace(mv8192_trace, ckpt_dir=ck, **guard)
    assert partial.partial and partial.checkpoint["written"] == 1
    resumed = analyze_trace(mv8192_trace, ckpt_dir=ck, resume=True)
    assert not resumed.partial
    assert resumed.checkpoint["resumed"][0]["events_skipped"] > 0
    assert_parity(resumed, plain)
