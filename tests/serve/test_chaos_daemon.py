"""Chaos certification: the daemon's recovery claims, failure by failure.

Each test injects one failure from the certified set — SIGKILL
mid-job, a stalled worker, queue overload — against a *real*
``repro serve`` subprocess and asserts the recovery contract:
interrupted jobs resume from their checkpoints and finish with
verdicts byte-identical to a direct, daemon-free analysis.

The injectors are armed through ``REPRO_SERVE_FAULT`` (checkpoint-
write hooks), so every "crash" lands at a reproducible point instead
of wherever the scheduler happened to be.
"""

import json

from repro.pipeline import CheckpointStore, analyze_trace
from repro.serve import poll_job, request, submit_trace


def _canon(verdicts):
    return json.dumps(verdicts, sort_keys=True)


def test_sigkill_mid_job_resumes_to_identical_verdicts(
        spawn_daemon, tmp_path, chaos_trace, chaos_oracle):
    state = tmp_path / "svc"
    # arm the injector: the daemon os._exit(137)s right after the job's
    # 2nd checkpoint write — to every file it is exactly `kill -9`
    proc, base = spawn_daemon(
        state, "--workers", "1", "--ckpt-every", "1",
        env_extra={"REPRO_SERVE_FAULT": "kill-after-ckpt:2"})
    status, _, job = submit_trace(base, chaos_trace)
    assert status == 202
    assert proc.wait(timeout=60) == 137

    # restart over the same state: the journal replays, the job is
    # requeued, and the analysis resumes from its checkpoint cursor
    proc2, base2 = spawn_daemon(state)
    done = poll_job(base2, job["id"], timeout_s=90.0)
    assert done["state"] == "done", done
    assert done["attempts"] >= 2
    assert done["resumed"], "expected a checkpoint resume, not a re-run"
    assert done["resumed"][0]["from_seq"] >= 2

    status, _, result = request(f"{base2}/jobs/{job['id']}/result")
    assert status == 200
    assert done["races"] == chaos_oracle["races"]
    assert _canon(result["verdicts"]) == _canon(chaos_oracle["verdicts"])


def test_stalled_worker_leaves_daemon_healthy(
        spawn_daemon, tmp_path, chaos_trace):
    # the worker wedges for 2s after its 1st checkpoint; a 1s deadline
    # guard then converts the stall into a failed (not hung) job while
    # the daemon keeps answering health checks throughout
    proc, base = spawn_daemon(
        tmp_path / "svc", "--workers", "1", "--deadline-s", "1",
        "--drain-s", "1", "--ckpt-every", "1",
        env_extra={"REPRO_SERVE_FAULT": "stall-after-ckpt:1:2"})
    status, _, job = submit_trace(base, chaos_trace)
    assert status == 202
    status, _, body = request(f"{base}/healthz")  # mid-stall
    assert status == 200 and body["ok"]
    done = poll_job(base, job["id"], timeout_s=60.0)
    assert done["state"] == "failed"
    assert done["reason"] == "guard:deadline"
    assert proc.poll() is None, "a wedged worker must not kill the daemon"
    status, _, _ = request(f"{base}/readyz")
    assert status == 200


def test_overload_sheds_load_with_429(
        spawn_daemon, tmp_path, chaos_trace, small_trace):
    # one worker wedged on the first job + a queue bound of 1 makes the
    # overload deterministic: the second submission must bounce
    proc, base = spawn_daemon(
        tmp_path / "svc", "--workers", "1", "--max-queue", "1",
        "--drain-s", "1",
        env_extra={"REPRO_SERVE_FAULT": "stall-after-ckpt:1:30"})
    status, _, _ = submit_trace(base, chaos_trace)
    assert status == 202
    status, headers, body = submit_trace(base, small_trace)
    assert status == 429
    assert body["error"] == "queue_full"
    assert int(headers["Retry-After"]) >= 1
    status, _, _ = request(f"{base}/healthz")
    assert status == 200


def test_sigkill_recovery_idempotent_across_two_kills(
        spawn_daemon, tmp_path, chaos_trace, chaos_oracle):
    # kill the daemon after checkpoint 2, then (restarted) after
    # checkpoint 2 more — progress still accumulates and the final
    # verdicts still match the oracle bit for bit
    state = tmp_path / "svc"
    proc, base = spawn_daemon(
        state, "--workers", "1", "--ckpt-every", "1",
        env_extra={"REPRO_SERVE_FAULT": "kill-after-ckpt:2"})
    _, _, job = submit_trace(base, chaos_trace)
    assert proc.wait(timeout=60) == 137

    proc2, _ = spawn_daemon(
        state, "--workers", "1", "--ckpt-every", "1",
        env_extra={"REPRO_SERVE_FAULT": "kill-after-ckpt:2"})
    assert proc2.wait(timeout=60) == 137  # died again, further along

    proc3, base3 = spawn_daemon(state, "--workers", "1")
    done = poll_job(base3, job["id"], timeout_s=90.0)
    assert done["state"] == "done", done
    assert done["attempts"] >= 3
    status, _, result = request(f"{base3}/jobs/{job['id']}/result")
    assert status == 200
    assert _canon(result["verdicts"]) == _canon(chaos_oracle["verdicts"])


# -- the default (amortized) cadence ------------------------------------------


def test_sigkill_after_first_amortized_checkpoint_resumes(
        spawn_daemon, tmp_path, mv8192_trace):
    """Die right after the rule's first, mid-trace checkpoint; restart."""
    # the oracle, and where the rule places that checkpoint in-process
    ck = tmp_path / "direct"
    oracle = analyze_trace(mv8192_trace, detector="our",
                           ckpt_dir=ck).to_dict()
    first = ck / "serial-00000001.ckpt"
    blob = first.read_bytes()
    at = CheckpointStore._read_header(first, blob, 8)[0]["meta"][
        "events_applied"]
    assert 0 < at < oracle["events_total"]

    state = tmp_path / "svc"
    proc, base = spawn_daemon(
        state, "--workers", "1",
        env_extra={"REPRO_SERVE_FAULT": "kill-after-ckpt:1"})
    status, _, job = submit_trace(base, mv8192_trace)
    assert status == 202
    assert proc.wait(timeout=60) == 137

    proc2, base2 = spawn_daemon(state, "--workers", "1")
    done = poll_job(base2, job["id"], timeout_s=90.0)
    assert done["state"] == "done", done
    # the seeded kill stopped at the cursor the rule picks in-process
    assert done["resumed"][0]["from_seq"] == 1
    assert done["resumed"][0]["events_skipped"] == at

    status, _, result = request(f"{base2}/jobs/{job['id']}/result")
    assert status == 200
    assert _canon(result["verdicts"]) == _canon(oracle["verdicts"])
    assert result["forensics"] == oracle["forensics"]


def test_sigkill_after_final_checkpoint_before_cache_put(
        spawn_daemon, tmp_path, chaos_trace, chaos_oracle):
    """On a short trace the rule's only checkpoint is the final one: die
    after it, before the verdict is cached; restart finishes the job."""
    state = tmp_path / "svc"
    proc, base = spawn_daemon(
        state, "--workers", "1",
        env_extra={"REPRO_SERVE_FAULT": "kill-after-ckpt:1"})
    status, _, job = submit_trace(base, chaos_trace)
    assert status == 202
    assert proc.wait(timeout=60) == 137
    assert not list((state / "cache").glob(f"{job['trace_sha']}-*.json"))

    proc2, base2 = spawn_daemon(state, "--workers", "1")
    done = poll_job(base2, job["id"], timeout_s=90.0)
    assert done["state"] == "done", done
    assert done["resumed"][0]["from_seq"] == 1
    assert done["resumed"][0]["events_skipped"] == \
        chaos_oracle["events_total"]

    status, _, result = request(f"{base2}/jobs/{job['id']}/result")
    assert status == 200
    assert _canon(result["verdicts"]) == _canon(chaos_oracle["verdicts"])
    assert result["forensics"] == chaos_oracle["forensics"]
