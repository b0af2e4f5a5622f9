"""Tests for the shared application measurement harness."""

import pytest

from repro.apps import (
    CfdConfig,
    CfdResult,
    cfd_program,
    default_partitions,
    detector_factory,
    run_app,
)
from repro.core import FlatDetector
from repro.detectors import detector_names


CFG = CfdConfig(cells_per_rank=64, iterations=3, bookkeeping_accesses=4)


class TestRunApp:
    def test_baseline_run(self):
        parts = default_partitions(4, CFG)
        r = run_app("cfd", cfd_program, 4, None, parts, CFG, CfdResult())
        assert r.detector == "Baseline"
        assert r.races == 0
        assert r.total_max_nodes == 0
        assert r.wall_seconds > 0
        assert r.sim_elapsed_ms > 0

    def test_detector_run_collects_stats(self):
        parts = default_partitions(4, CFG)
        det = FlatDetector()
        r = run_app("cfd", cfd_program, 4, det, parts, CFG, CfdResult())
        assert r.detector == "Our Contribution"
        assert r.total_max_nodes > 0
        assert r.accesses_processed > 0
        assert r.analysis_seconds > 0

    def test_breakdown_categories(self):
        parts = default_partitions(4, CFG)
        r = run_app("cfd", cfd_program, 4, None, parts, CFG, CfdResult())
        assert set(r.sim_breakdown) == {"compute", "comm", "sync", "analysis"}
        assert r.sim_breakdown["analysis"] == 0.0  # no detector attached

    def test_label(self):
        parts = default_partitions(4, CFG)
        r = run_app("cfd", cfd_program, 4, None, parts, CFG, CfdResult())
        assert r.label == "cfd/Baseline@4"


class TestFactories:
    def test_the_four_fig10_bars(self):
        bars = {"Baseline", *detector_names("paper")}
        assert bars == {
            "Baseline", "RMA-Analyzer", "MUST-RMA", "Our Contribution"
        }
        for name in bars:
            detector_factory(name)

    def test_factories_produce_fresh_instances(self):
        f = detector_factory("Our Contribution")
        assert f() is not f()
        assert type(f()) is FlatDetector  # the shipped core

    def test_baseline_factory_is_none(self):
        assert detector_factory("Baseline")() is None

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            detector_factory("tsan")
