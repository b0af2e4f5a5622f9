"""Parity and metrics tests for the analysis engine.

The load-bearing property: ``analyze_trace`` must report byte-identical
verdicts to an in-memory ``replay_trace`` over the same trace, for
every detector.
"""

import json

import pytest

from repro.detectors import detector_class, detector_names
from repro.mpi import load_trace, replay_trace
from repro.pipeline import analyze_trace, canonical_verdicts


def _serial_verdicts(trace_path, detector):
    det = replay_trace(load_trace(trace_path), detector_class(detector)())
    return json.dumps(canonical_verdicts(det.reports), sort_keys=True)


def _pipeline_verdicts(result):
    return json.dumps(result.verdicts, sort_keys=True)


class TestVerdictParity:
    @pytest.mark.parametrize("detector", detector_names())
    def test_minivite_jobs4_matches_serial(self, minivite_trace, detector):
        result = analyze_trace(minivite_trace, detector=detector)
        assert _pipeline_verdicts(result) == \
            _serial_verdicts(minivite_trace, detector)

    @pytest.mark.parametrize("detector", ["our", "rma"])
    def test_cfd_jobs4_matches_serial(self, cfd_trace, detector):
        result = analyze_trace(cfd_trace, detector=detector)
        assert _pipeline_verdicts(result) == \
            _serial_verdicts(cfd_trace, detector)

    def test_injected_race_is_found(self, minivite_trace):
        result = analyze_trace(minivite_trace, detector="our")
        assert result.races > 0


class TestMetrics:
    def test_shard_stats_cover_all_ranks(self, minivite_trace):
        """One row, ``shard`` -1, covers every rank's events and races."""
        result = analyze_trace(minivite_trace, detector="our")
        (row,) = result.shard_stats
        assert row.shard == -1
        assert row.events == result.events_total
        assert row.peak_nodes > 0 and row.processed > 0
        assert row.races == result.races

    def test_throughput_metrics(self, minivite_trace):
        result = analyze_trace(minivite_trace, detector="our")
        assert result.wall_seconds > 0
        assert result.events_per_sec > 0
        assert result.events_total == len(load_trace(minivite_trace).log)

    def test_to_dict_is_json_serializable(self, minivite_trace):
        result = analyze_trace(minivite_trace, detector="our")
        d = json.loads(json.dumps(result.to_dict()))
        assert d["races"] == result.races
        assert len(d["shards"]) == 1


class TestInputHandling:
    def test_in_memory_trace_refused(self, minivite_trace):
        """Analysis reads trace files only; replay_trace is the
        in-memory route."""
        with pytest.raises(TypeError, match="LoadedTrace"):
            analyze_trace(load_trace(minivite_trace))

    def test_unknown_detector_rejected(self, minivite_trace):
        with pytest.raises(ValueError, match="unknown detector"):
            analyze_trace(minivite_trace, detector="tsan")
