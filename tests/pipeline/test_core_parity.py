"""One parity matrix: every entry point of the shipped core vs the oracle.

The flat core (``src/repro/core/flatcore.py``) is the only "ours" the
product builds: the live simulator behind the paper experiments and
every ``repro analyze`` run (plain or checkpointed and resumed) get it
from :data:`repro.detectors.DETECTORS`.  The object core
(:class:`~repro.core.OurDetector`, Algorithm 1 over the node-linked
interval tree) is the reference oracle, built directly and fed the way
the e2e benchmark's ``Oracle`` feeds it: every recorded event through
``dispatch_event``, the timeline through ``record_event_fanout``, then
``finalize()`` and ``publish_obs()``.

Rows (:data:`ROWS`), each on the miniVite (race injected) and CFD-Proxy
fixtures — both recorded ``repro-trace-v2`` files, the one trace
format — plus the seed-7 scenario corpus:

* ``live`` — ``run_app`` through ``detector_factory("Our
  Contribution")``; its node counts (the Table 4 quantities) must
  also equal a live run of the oracle;
* ``serial`` — ``analyze_trace``, which must take the wire path: every
  event reaches the flat core through ``ingest_wire``;
* ``ckpt_resume`` — ``analyze_trace`` checkpointing every chunk and
  stopped by the deadline guard after its first chunk, then a second
  process-local run resuming from that mid-trace checkpoint: the
  resumed run's verdicts, forensics and event count;
* ``follow`` — ``analyze_trace(path, ckpt_dir=..., follow=True)`` on
  the finished fixture;
* ``serve`` — an in-process :class:`~repro.serve.Scheduler` with a
  private registry: the stored result of one job;
* the corpus, live, scenario by scenario.

Each row runs once per workload (the ``observed`` fixture).  Compared
byte for byte with the oracle: canonical verdicts and forensics, event
counts and shard statistics, every row's ``repro-timeline-v1``
snapshot, the live rows' node counts, and every registry value under
``bst.*``, ``core.*``, ``detector.*`` and ``filter.*`` except the two
that depend on the store's layout (:data:`LAYOUT_COUNTERS`: the flat
store's sorted blocks charge bisect probes and never rotate, the
oracle's AVL tree counts descents and rotations).  Among themselves the
flat-core rows agree on every registry value, probe counts included
(``test_obs_snapshot_identical``), and so the live row's simulated
time is the flat core's alone (pinned by ``tests/golden/``'s
``repro run`` rows).  Anything short of identity is a flat-core bug.
The per-path suites in ``tests/resilience`` and ``tests/property``
certify those paths further against serial.
"""

import json
import tempfile
import time

import pytest

from repro import obs
from repro.apps.harness import detector_factory, run_app
from repro.core import FlatDetector, OurDetector
from repro.mpi.trace_io import load_trace
from repro.obs.registry import Registry
from repro.pipeline import RECORDABLE_APPS, analyze_trace
from repro.pipeline.engine import canonical_forensics, canonical_verdicts
from repro.pipeline.shard import dispatch_event
from repro.scenarios import generate_corpus
from repro.scenarios.build import record_scenario, run_scenario
from repro.serve import Scheduler

#: the fixtures' recordings (tests/pipeline/conftest.py): app -> (size,
#: inject_race), on 4 ranks
INPUTS = {"minivite": (256, True), "cfd": (4, False)}
NRANKS = 4

#: Table-4 pins for the recorded fixtures:
#: (events_total, races, peak_nodes, accesses_processed)
PINNED = {
    "minivite": (2333, 12, 196, 807),
    "cfd": (4414, 0, 8, 1024),
}

#: registry sections compared (none holds a wall-clock value)
_PREFIXES = ("bst.", "core.", "detector.", "filter.")

#: the store's own work counters: bisect probes and no rotations in the
#: flat store, descent comparisons and rotations in the oracle's tree
LAYOUT_COUNTERS = ("bst.comparisons{", "bst.rotations{")


def _registry(snap):
    return {
        section: {k: v for k, v in snap.get(section, {}).items()
                  if k.startswith(_PREFIXES)}
        for section in ("counters", "gauges", "histograms")
    }


def _store_independent(registry):
    """``registry`` without :data:`LAYOUT_COUNTERS`."""
    return {section: {k: v for k, v in values.items()
                      if not k.startswith(LAYOUT_COUNTERS)}
            for section, values in registry.items()}


def _reports(reports):
    return {"verdicts": canonical_verdicts(reports),
            "forensics": canonical_forensics(reports)}


def _shard(events, reports, stats):
    """The serial run's one shard: (events, races, peak, processed)."""
    return [(events, len(reports),
             max(stats.max_nodes_per_rank.values(), default=0),
             stats.accesses_processed)]


def _app(app, det):
    size, race = INPUTS[app]
    program, args = RECORDABLE_APPS[app].builder(NRANKS, size, race)
    return run_app(app, program, NRANKS, det, *args)


def _fed_oracle(events, nranks, reg):
    """``OurDetector()`` fed like the e2e Oracle, then finalized."""
    det = OurDetector()
    for event in events:
        reg.timeline.record_event_fanout(event, nranks)
        dispatch_event(det, event, nranks)
    det.finalize()
    return det


def oracle(app, path):
    """The object core's observation of one recorded trace."""
    loaded = load_trace(path)
    events = loaded.log.events
    with obs.scope() as reg:
        det = _fed_oracle(events, loaded.nranks, reg)
        det.publish_obs()
        registry = _store_independent(_registry(reg.snapshot()))
        timeline = reg.timeline.snapshot()
    return {**_reports(det.reports), "events": len(events),
            "shards": _shard(len(events), det.reports, det.node_stats()),
            "registry": registry, "timeline": timeline,
            # the live rows' node counts
            "app": _app_stats(_app(app, OurDetector()))}


def _app_stats(run):
    return (run.total_max_nodes, run.max_nodes_one_rank,
            run.accesses_processed, run.accesses_filtered)


def _live(app, path):
    det = detector_factory("Our Contribution")()
    assert type(det) is FlatDetector
    with obs.scope() as reg:
        run = _app(app, det)
        return {**_reports(det.reports),
                "flat_registry": _registry(reg.snapshot()),
                "app": _app_stats(run), "timeline": reg.timeline.snapshot()}


def _analyzed(path):
    wired = []
    real = FlatDetector.ingest_wire

    def spy(self, *args, **kwargs):
        wired.append(args[2])  # the chunk's event count
        return real(self, *args, **kwargs)

    with obs.scope() as reg, pytest.MonkeyPatch.context() as mp:
        mp.setattr(FlatDetector, "ingest_wire", spy)
        res = analyze_trace(path)
        s = res.shard_stats[0]
        return {"verdicts": res.verdicts, "forensics": res.forensics,
                "events": res.events_total, "timeline": res.timeline,
                "shards": [(s.events, s.races, s.peak_nodes, s.processed)],
                "flat_registry": _registry(reg.snapshot()),
                "wire_events": sum(wired)}


def _resumed(path):
    """A run stopped after chunk 1 by the deadline, then resumed."""
    with tempfile.TemporaryDirectory() as ckpt_dir:
        first = analyze_trace(path, ckpt_dir=ckpt_dir, ckpt_every=1,
                              deadline_s=1e-9)
        assert first.partial and first.checkpoint["written"] == 1
        res = analyze_trace(path, ckpt_dir=ckpt_dir, resume=True)
    assert not res.partial
    (resumed,) = res.checkpoint["resumed"]
    return {"verdicts": res.verdicts, "forensics": res.forensics,
            "events": res.events_total, "timeline": res.timeline,
            "flat_registry": _registry(res.obs),
            "chunks_skipped": resumed["chunks_skipped"]}


def _followed(path):
    """``--follow`` over the finished fixture: ends at its trailer."""
    with tempfile.TemporaryDirectory() as ckpt_dir:
        res = analyze_trace(path, ckpt_dir=ckpt_dir, follow=True)
    assert not res.partial
    return {"verdicts": res.verdicts, "forensics": res.forensics,
            "events": res.events_total, "timeline": res.timeline,
            "flat_registry": _registry(res.obs)}


def _served(path):
    """One job through an in-process scheduler: its stored result."""
    with tempfile.TemporaryDirectory() as state:
        sched = Scheduler(state, workers=1)
        sched.registry = Registry(enabled=True)
        sched.start()
        try:
            jid = sched.submit_bytes(path.read_bytes()).id
            deadline = time.monotonic() + 120
            while sched.get_job(jid)["state"] != "done":
                assert time.monotonic() < deadline, sched.get_job(jid)
                time.sleep(0.02)
            res = sched.get_result(jid)
        finally:
            sched.drain(timeout=5.0)
    return {"verdicts": res["verdicts"], "forensics": res["forensics"],
            "events": res["events_total"], "timeline": res["timeline"],
            "flat_registry": _registry(res["obs"])}


#: the matrix: row -> run of the shipped core on one recorded input
ROWS = {
    "live": _live,
    "serial": lambda app, path: _analyzed(path),
    "ckpt_resume": lambda app, path: _resumed(path),
    "follow": lambda app, path: _followed(path),
    "serve": lambda app, path: _served(path),
}


@pytest.fixture(scope="module", params=sorted(INPUTS))
def workload(request, minivite_trace, cfd_trace):
    """(app, trace path, oracle observation), the oracle run once."""
    app = request.param
    path = {"minivite": minivite_trace, "cfd": cfd_trace}[app]
    return app, path, oracle(app, path)


@pytest.fixture(scope="module")
def observed(workload):
    """Every row's observation of the workload, each row run once."""
    app, path, _ = workload
    return {row: run(app, path) for row, run in ROWS.items()}


def _assert_row(workload, observed, row, keys):
    """Compare one row's observation with the oracle's on ``keys``."""
    app, _, want = workload
    got = observed[row]
    for key in keys:
        assert json.dumps(got[key], sort_keys=True, default=str) == \
            json.dumps(want[key], sort_keys=True, default=str), (
                f"{row} row diverges from the oracle on {app}: {key}")


class TestRecordedWorkloads:
    def test_live_byte_identical(self, workload, observed):
        _assert_row(workload, observed, "live",
                    ("verdicts", "forensics", "app"))

    def test_serial_byte_identical(self, workload, observed):
        _assert_row(workload, observed, "serial",
                    ("verdicts", "forensics", "events", "shards"))

    def test_serial_row_takes_the_wire_path(self, observed):
        serial = observed["serial"]
        assert serial["wire_events"] == serial["events"] > 0

    def test_ckpt_resume_byte_identical(self, workload, observed):
        """Resumed from a pinned mid-trace checkpoint: still the oracle."""
        assert observed["ckpt_resume"]["chunks_skipped"] == 1
        _assert_row(workload, observed, "ckpt_resume",
                    ("verdicts", "forensics", "events"))

    @pytest.mark.parametrize("row", ["follow", "serve"])
    def test_follow_and_serve_byte_identical(self, workload, observed, row):
        _assert_row(workload, observed, row,
                    ("verdicts", "forensics", "events"))

    @pytest.mark.parametrize("row", sorted(ROWS))
    def test_timeline_identical(self, workload, observed, row):
        """Every row's repro-timeline-v1 snapshot is the oracle's."""
        assert observed[row]["timeline"] is not None
        _assert_row(workload, observed, row, ("timeline",))

    def test_obs_snapshot_identical(self, workload, observed):
        """Registry values: every flat-core row's equal the serial
        row's, bisect-probe counts included; against the oracle, every
        ``bst.*`` counter but :data:`LAYOUT_COUNTERS` (inserts,
        removals, queries, the fan-out histogram, node counts) and
        every core, detector and filter counter."""
        serial = observed["serial"]["flat_registry"]
        assert serial["counters"][
            "bst.rotations{tool=Our Contribution}"] == 0
        assert serial["counters"]["bst.comparisons{tool=Our Contribution}"] > 0
        for row in sorted(ROWS):
            assert observed[row]["flat_registry"] == serial, row
        app, _, want = workload
        assert _store_independent(serial) == want["registry"], app

    def test_table4_pins(self, workload, observed):
        """The shipped core and the oracle reproduce the exact pinned
        Table-4 numbers."""
        app, _, want = workload
        events, races, peak, processed = PINNED[app]
        assert want["shards"] == [(events, races, peak, processed)]
        assert observed["serial"]["events"] == events
        assert observed["serial"]["shards"] == want["shards"]


class TestScenarioCorpus:
    """Seed-7 corpus: 60 scenarios, the shipped core live vs the oracle."""

    @pytest.fixture(scope="class")
    def corpus(self):
        return generate_corpus(7, 60)

    @staticmethod
    def _key(det):
        return json.dumps(_reports(det.reports), sort_keys=True, default=str)

    def _live(self, sc):
        # fresh registry per run: forensics embed timeline views, which
        # would otherwise leak across the two executions
        with obs.scope():
            det = detector_factory("Our Contribution")()
            run_scenario(sc, det)
            det.finalize()
            return self._key(det), det.node_stats()

    def _oracle(self, sc):
        trace = record_scenario(sc)
        with obs.scope() as reg:
            det = _fed_oracle(trace.events, sc.nranks, reg)
            return self._key(det), det.node_stats()

    def test_corpus_byte_identical(self, corpus):
        mismatches = []
        for sc in corpus:
            key_f, ns_f = self._live(sc)
            key_o, ns_o = self._oracle(sc)
            if key_o != key_f:
                mismatches.append(sc.name)
            if ns_o != ns_f:
                mismatches.append(f"{sc.name} (node stats)")
        assert not mismatches, f"core divergence on: {mismatches}"
