"""Chaos tests: worker kills and stalls under the supervised engine.

The acceptance bar: for every seeded fault plan, ``analyze_trace``
either returns verdicts byte-identical to serial replay (recovered via
retry) or a result with ``degraded=True`` and honest failure accounting
— and never hangs (the package-wide hang guard enforces that part).
"""

import json

import pytest

from repro.faultinject import FaultPlan, KillWorker, StallWorker
from repro.mpi.errors import WorkerCrashedError
from repro.pipeline import analyze_trace, backoff_delay


def _same_verdicts(a, b):
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


# -- file dispatch: crashed workers are retried -------------------------------


def test_kill_first_attempt_recovers_via_retry(mv_trace, serial_verdicts):
    plan = FaultPlan((KillWorker(worker=0, after_batches=100),))
    result = analyze_trace(mv_trace, jobs=2, dispatch="file",
                           fault_plan=plan)
    assert _same_verdicts(result.verdicts, serial_verdicts)
    assert result.retries == 1
    assert not result.degraded
    [failure] = result.failed_workers
    assert failure["worker"] == 0
    assert failure["reason"] == "crashed"
    assert failure["exitcode"] == 17
    assert failure["attempt"] == 0
    assert failure["shards"] == [0, 2]


def test_kill_every_attempt_degrades_with_parity(mv_trace, serial_verdicts):
    plan = FaultPlan((KillWorker(worker=1, after_batches=50, attempt=None),))
    result = analyze_trace(mv_trace, jobs=2, dispatch="file",
                           fault_plan=plan, retries=1, backoff_base=0.01)
    assert _same_verdicts(result.verdicts, serial_verdicts)
    assert result.degraded
    assert result.retries == 1  # one respawn happened, then gave up
    # both attempts are on the record
    assert [f["attempt"] for f in result.failed_workers] == [0, 1]
    assert all(f["worker"] == 1 for f in result.failed_workers)


def test_retries_zero_degrades_immediately(mv_trace, serial_verdicts):
    plan = FaultPlan((KillWorker(worker=0, after_batches=1),))
    result = analyze_trace(mv_trace, jobs=2, dispatch="file",
                           fault_plan=plan, retries=0)
    assert _same_verdicts(result.verdicts, serial_verdicts)
    assert result.degraded
    assert result.retries == 0


def test_kill_two_workers_same_round(mv_trace, serial_verdicts):
    plan = FaultPlan((
        KillWorker(worker=0, after_batches=30),
        KillWorker(worker=2, after_batches=60, exitcode=9),
    ))
    result = analyze_trace(mv_trace, jobs=4, dispatch="file",
                           fault_plan=plan, backoff_base=0.01)
    assert _same_verdicts(result.verdicts, serial_verdicts)
    assert result.retries == 2  # both respawned, both succeeded
    assert not result.degraded
    assert sorted(f["worker"] for f in result.failed_workers) == [0, 2]


def test_stalled_worker_is_replaced(mv_trace, serial_verdicts):
    plan = FaultPlan((StallWorker(worker=0, after_batches=100),))
    result = analyze_trace(mv_trace, jobs=2, dispatch="file",
                           fault_plan=plan, timeout=1.0, backoff_base=0.01)
    assert _same_verdicts(result.verdicts, serial_verdicts)
    assert result.retries == 1
    assert not result.degraded
    [failure] = result.failed_workers
    assert failure["reason"] == "stalled"
    assert failure["exitcode"] is None


def test_recover_false_raises_naming_the_worker(mv_trace):
    plan = FaultPlan((KillWorker(worker=1, after_batches=10),))
    with pytest.raises(WorkerCrashedError) as excinfo:
        analyze_trace(mv_trace, jobs=2, dispatch="file",
                      fault_plan=plan, recover=False)
    msg = str(excinfo.value)
    assert "worker 1" in msg
    assert "crashed" in msg
    assert excinfo.value.shards == [1, 3]
    assert excinfo.value.exitcode == 17


def test_v1_trace_supervised_retry(cfd_trace):
    """Supervision is path-agnostic: a file-dispatch worker that decodes
    events is retried too.  The baseline detector has no wire ingestion,
    which keeps the worker on the decoded path that v1 traces took."""
    baseline = analyze_trace(cfd_trace, detector="mc", jobs=1).verdicts
    plan = FaultPlan((KillWorker(worker=0, after_batches=20),))
    result = analyze_trace(cfd_trace, detector="mc", jobs=2,
                           dispatch="file", fault_plan=plan)
    assert _same_verdicts(result.verdicts, baseline)
    assert result.retries == 1


# -- queue dispatch: in-flight batches die with the worker --> degrade --------


def test_queue_kill_degrades_with_parity(mv_trace, serial_verdicts):
    plan = FaultPlan((KillWorker(worker=1, after_batches=2),))
    result = analyze_trace(mv_trace, jobs=2, dispatch="queue",
                           batch_size=64, fault_plan=plan)
    assert _same_verdicts(result.verdicts, serial_verdicts)
    assert result.degraded
    assert result.retries == 0  # queue batches are gone: no retry material
    assert any(f["worker"] == 1 and f["reason"] == "crashed"
               for f in result.failed_workers)


def test_queue_stall_detected_by_producer(mv_trace, serial_verdicts):
    plan = FaultPlan((StallWorker(worker=0, after_batches=1),))
    result = analyze_trace(mv_trace, jobs=2, dispatch="queue",
                           batch_size=16, queue_depth=2,
                           timeout=1.0, fault_plan=plan)
    assert _same_verdicts(result.verdicts, serial_verdicts)
    assert result.degraded
    assert any(f["worker"] == 0 and f["reason"] == "stalled"
               for f in result.failed_workers)


# -- surfacing and plumbing ---------------------------------------------------


def test_unfaulted_run_reports_clean_resilience_fields(mv_trace):
    result = analyze_trace(mv_trace, jobs=2, dispatch="file")
    assert result.retries == 0
    assert not result.degraded
    assert result.failed_workers == []
    assert result.salvage is None
    d = result.to_dict()
    assert d["retries"] == 0
    assert d["degraded"] is False
    assert d["failed_workers"] == []


def test_failure_accounting_survives_to_dict(mv_trace):
    plan = FaultPlan((KillWorker(worker=0, after_batches=5, attempt=None),))
    result = analyze_trace(mv_trace, jobs=2, dispatch="file",
                           fault_plan=plan, retries=1, backoff_base=0.01)
    d = result.to_dict()
    assert d["degraded"] is True
    for failure in d["failed_workers"]:
        assert set(failure) == {"worker", "shards", "reason",
                                "exitcode", "attempt"}


def test_backoff_delay_is_capped_exponential():
    delays = [backoff_delay(a, base=0.1, cap=2.0) for a in (1, 2, 3, 4, 5, 6)]
    assert delays == [0.1, 0.2, 0.4, 0.8, 1.6, 2.0]


@pytest.mark.parametrize("kwargs", [
    {"retries": -1},
    {"timeout": 0.0},
    {"timeout": -5.0},
])
def test_bad_resilience_knobs_rejected(mv_trace, kwargs):
    with pytest.raises(ValueError):
        analyze_trace(mv_trace, jobs=2, **kwargs)
