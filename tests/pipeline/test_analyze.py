"""Parity and metrics tests for the sharded analysis engine.

The load-bearing property: ``analyze_trace(..., jobs=4)`` must report
byte-identical verdicts to a single-threaded ``replay_trace`` over the
same trace, for every detector.
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
        result = analyze_trace(minivite_trace, detector=detector, jobs=4)
        assert result.jobs == 4
        assert _pipeline_verdicts(result) == \
            _serial_verdicts(minivite_trace, detector)

    @pytest.mark.parametrize("detector", ["our", "rma"])
    def test_cfd_jobs4_matches_serial(self, cfd_trace, detector):
        result = analyze_trace(cfd_trace, detector=detector, jobs=4)
        assert _pipeline_verdicts(result) == \
            _serial_verdicts(cfd_trace, detector)

    def test_injected_race_is_found(self, minivite_trace):
        result = analyze_trace(minivite_trace, detector="our", jobs=4)
        assert result.races > 0

    def test_jobs1_equals_jobs4(self, minivite_trace):
        one = analyze_trace(minivite_trace, detector="our", jobs=1)
        four = analyze_trace(minivite_trace, detector="our", jobs=4)
        assert _pipeline_verdicts(one) == _pipeline_verdicts(four)

    def test_file_dispatch_equals_queue_dispatch(self, minivite_trace):
        queue = analyze_trace(minivite_trace, detector="our", jobs=2,
                              dispatch="queue")
        file = analyze_trace(minivite_trace, detector="our", jobs=2,
                             dispatch="file")
        assert _pipeline_verdicts(queue) == _pipeline_verdicts(file)
        assert queue.events_total == file.events_total

    def test_odd_job_counts(self, minivite_trace):
        baseline = _serial_verdicts(minivite_trace, "our")
        for jobs in (2, 3):
            result = analyze_trace(minivite_trace, detector="our", jobs=jobs)
            assert _pipeline_verdicts(result) == baseline, jobs

    def test_tiny_batches(self, minivite_trace):
        result = analyze_trace(minivite_trace, detector="our", jobs=4,
                               batch_size=7)
        assert _pipeline_verdicts(result) == \
            _serial_verdicts(minivite_trace, "our")


class TestMetrics:
    def test_shard_stats_cover_all_ranks(self, minivite_trace):
        result = analyze_trace(minivite_trace, detector="our", jobs=4)
        assert [s.shard for s in result.shard_stats] == [0, 1, 2, 3]
        assert all(s.events > 0 for s in result.shard_stats)
        assert all(s.peak_nodes > 0 for s in result.shard_stats)
        assert sum(s.races for s in result.shard_stats) >= result.races

    def test_throughput_metrics(self, minivite_trace):
        result = analyze_trace(minivite_trace, detector="our", jobs=2)
        assert result.wall_seconds > 0
        assert result.events_per_sec > 0
        assert result.events_total == len(load_trace(minivite_trace).log)

    def test_queue_peaks_bounded(self, minivite_trace):
        result = analyze_trace(minivite_trace, detector="our", jobs=4,
                               queue_depth=8)
        assert len(result.queue_peak) == 4
        assert all(0 <= p <= 9 for p in result.queue_peak)

    def test_to_dict_is_json_serializable(self, minivite_trace):
        result = analyze_trace(minivite_trace, detector="our", jobs=2)
        d = json.loads(json.dumps(result.to_dict()))
        assert d["races"] == result.races
        assert d["jobs"] == 2
        assert len(d["shards"]) == 4


class TestInputHandling:
    def test_in_memory_trace_refused(self, minivite_trace):
        """Analysis reads trace files only; replay_trace is the
        in-memory route."""
        with pytest.raises(TypeError, match="LoadedTrace"):
            analyze_trace(load_trace(minivite_trace))

    def test_jobs_clamped_to_nranks(self, minivite_trace):
        result = analyze_trace(minivite_trace, detector="our", jobs=64)
        assert result.jobs == 4

    def test_unknown_detector_rejected(self, minivite_trace):
        with pytest.raises(ValueError, match="unknown detector"):
            analyze_trace(minivite_trace, detector="tsan")

    def test_unknown_dispatch_rejected(self, minivite_trace):
        with pytest.raises(ValueError, match="dispatch"):
            analyze_trace(minivite_trace, dispatch="sorted")

    def test_bad_batch_size_rejected(self, minivite_trace):
        with pytest.raises(ValueError, match="batch_size"):
            analyze_trace(minivite_trace, batch_size=0)
