"""Forensics bundles: capture, the golden Fig. 9b message, explain text."""

from __future__ import annotations

import json

from repro.core.forensics import (
    FORENSICS_SCHEMA,
    capture_forensics,
    forensics_message,
    render_explain,
    render_explain_all,
)
from repro.intervals import AccessType
from repro.obs.timeline import Timeline
from tests.conftest import acc

#: the exact abort text the original tool prints (paper Fig. 9b)
GOLDEN_FIG9B = (
    "Error when inserting memory access of type RMA_WRITE from file "
    "./dspl.hpp:614 with already inserted interval of type RMA_WRITE "
    "from file ./dspl.hpp:612. "
    "The program will be exiting now with MPI_Abort."
)


class _StubDetector:
    name = "Our Contribution"

    def forensic_sync_state(self, wid):
        return {"open_epochs": [0, 1], "window_known": True}

    def forensic_tree_state(self, rank, wid):
        return {"nodes": 3, "max_size": 5, "inserts": 7, "queries": 2}


def _bundle(k=8):
    stored = acc(4096, 4336, AccessType.RMA_WRITE,
                 file="./dspl.hpp", line=612, origin=0)
    new = acc(4096, 4336, AccessType.RMA_WRITE,
              file="./dspl.hpp", line=614, origin=0)
    tl = Timeline(16)
    tl.record_sync("lock_all", 0, 0, lanes=(0, 1, 2), seq=1)
    tl.record_rma("put", 0, 2, 0, stored, stored, seq=2)
    tl.record_rma("put", 0, 2, 0, new, new, seq=3)
    return capture_forensics(
        _StubDetector(), tl, rank=2, wid=0, stored=stored, new=new,
        phase="data_race_detection", k=k,
    )


def test_bundle_shape_and_schema():
    bundle = _bundle()
    assert bundle["schema"] == FORENSICS_SCHEMA == "repro-forensics-v1"
    assert bundle["phase"] == "data_race_detection"
    assert bundle["rank"] == 2 and bundle["window"] == 0
    assert bundle["stored"]["line"] == 612 and bundle["new"]["line"] == 614
    # involved ranks: detection rank first, then the (deduped) origins
    assert sorted(bundle["timeline"]["views"]) == ["0", "2"]


def test_fig9b_message_is_golden():
    assert forensics_message(_bundle()) == GOLDEN_FIG9B


def test_bundle_round_trips_through_json():
    bundle = _bundle()
    assert json.loads(json.dumps(bundle)) == bundle
    # and key order / content is deterministic across captures
    assert json.dumps(_bundle(), sort_keys=True) == json.dumps(
        bundle, sort_keys=True)


def test_render_explain_names_everything():
    text = render_explain(_bundle(), index=0)
    assert GOLDEN_FIG9B in text
    assert "./dspl.hpp:612" in text and "./dspl.hpp:614" in text
    assert "open epochs on window: ranks [0, 1]" in text
    assert "racing store: 3 nodes (peak 5), 2 queries so far" in text
    assert "timeline of rank 0" in text and "timeline of rank 2" in text
    assert "<-- racing access (new)" in text
    assert "<-- racing access (stored)" in text
    # the enclosing epoch made it into the shown timeline
    assert "lock_all" in text


def test_origin_set_shows_every_origin():
    """A fragment of two ranks' accumulates names both, and the
    diagnostic shows both ranks' timelines."""
    stored = acc(0, 8, AccessType.RMA_WRITE, file="acc.c", line=1).replace(
        accum_op="sum", origin=((0, 0), (1, 0)))
    new = acc(0, 8, AccessType.LOCAL_READ, file="acc.c", line=2, origin=2)
    bundle = json.loads(json.dumps(capture_forensics(
        _StubDetector(), Timeline(16), rank=2, wid=0, stored=stored,
        new=new, phase="data_race_detection")))
    assert sorted(bundle["timeline"]["views"]) == ["0", "1", "2"]
    text = render_explain(bundle)
    assert "issued by ranks 0, 1 at acc.c:1" in text
    assert "issued by rank 2 at acc.c:2" in text


def test_render_explain_all_empty():
    assert "no races" in render_explain_all([])


def test_render_explain_all_indexes_races():
    text = render_explain_all([_bundle(), _bundle()])
    assert "race 0:" in text and "race 1:" in text
