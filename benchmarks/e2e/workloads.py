"""The four workloads, untraced: the end-to-end numbers come from here.

Each runner takes its inputs' manifest, a time budget and a
:class:`~common.Tally`, checks every operation against the oracle
digest, and returns the end-to-end metric summaries (set-up time,
peak RSS) plus the wall-time rates and latencies the full result
reports for information.

* ``minivite-race`` / ``cfd-clean`` time ``python -m repro analyze
  <trace> --json`` as a child process (start-up included), interleaved
  with runs on a zero-event trace of the same rank count (``setup_s``).
  Peak RSS is the child's own, read with ``os.wait4``.
* ``serve-grow`` drives the real ``repro serve`` daemon with one
  closed-loop client: per round a cold submit→verdict, the 10%-grown
  resubmission (a prefix-resume) and cache-hit resubmissions.
  ``setup_s`` is spawn until the first 200 from ``/readyz``, sampled on
  the daemon itself and on probe daemons spawned between rounds.
* ``live-sim`` runs the simulator with the detector attached
  (``apps.harness.run_app``) and scores a scenario corpus in this
  process; ``setup_s`` is building the app inputs and the corpus.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Callable, List, Optional, Tuple

from common import (
    INPUTS,
    NRANKS,
    OP_TIMEOUT_S,
    WORK,
    Sizes,
    Tally,
    scrubbed_env,
    summary,
    verdict_digest,
)

#: client poll interval while a served job runs
POLL_S = 0.01


def run_child(argv: List[str], *, stdout: Path,
              timeout: float = OP_TIMEOUT_S) -> Tuple[float, int, float]:
    """Run one child to completion: (wall s, exit code, peak RSS MB).

    The child writes to a file, so the parent does nothing while it
    runs; ``os.wait4`` gives this child's own peak RSS (Linux: KiB).
    """
    with open(stdout, "wb") as out, \
            open(stdout.with_suffix(".err"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err,
                                env=scrubbed_env(), cwd=str(WORK))
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


class Budget:
    """Start another repetition only while it should end in time."""

    def __init__(self, seconds: float, min_reps: int) -> None:
        self.seconds = seconds
        self.min_reps = min_reps
        self.t0 = time.perf_counter()
        self.reps = 0
        self.durations: List[float] = []

    def more(self) -> bool:
        if self.reps < self.min_reps:
            return True
        est = sorted(self.durations)[len(self.durations) // 2]
        return time.perf_counter() - self.t0 + est <= self.seconds

    def done(self, took: float) -> None:
        self.reps += 1
        self.durations.append(took)


def info(samples: List[float], unit: str) -> dict:
    """Summary of a timing reported for information, without a bound.

    Wall-time rates and latencies are not end-to-end metrics: on the
    reference VM their run-to-run spread is wider than the 10% bound
    (README, "Machine, configuration and noise").
    """
    return {**summary(samples), "unit": unit}


def _guard(tally: Tally, what: str, fn: Callable):
    """Run one operation; an exception is a counted failure, not a crash."""
    try:
        return fn()
    except Exception as exc:  # noqa: BLE001 - every failure is counted
        tally.check(False, f"{what}: {type(exc).__name__}: {exc}")
        return None


# -- analyze workloads --------------------------------------------------------


def run_analyze(manifest: dict, seconds: float, sz: Sizes,
                tally: Tally) -> dict:
    trace = INPUTS / manifest["files"]["trace"]["path"]
    empty = INPUTS / manifest["files"]["empty"]["path"]
    expect = manifest["oracle"]["trace"]
    events = expect["events"]
    cli = [sys.executable, "-m", "repro", "analyze"]
    out = WORK / "analyze.json"

    def analyze(path: Path, n_events: int, digest: Optional[str]):
        wall, code, rss = run_child(cli + [str(path), "--json"], stdout=out)
        ok, why = code == 0, f"exit {code}"
        if ok:
            res = json.loads(out.read_bytes())
            got = verdict_digest(res["verdicts"], res["forensics"])
            ok = res["events_total"] == n_events and (
                digest is None or got == digest)
            why = (f"events {res['events_total']}/{n_events}, "
                   f"digest {got[:12]}")
        tally.check(ok, f"analyze {path.name}: {why}")
        return wall, rss

    def setup():
        return analyze(empty, 0, None)

    def work():
        return analyze(trace, events, expect["digest"])

    for _ in range(sz.warmup):
        _guard(tally, "warm-up", setup)
        _guard(tally, "warm-up", work)
    setups, walls, rsss = [], [], []
    budget = Budget(seconds, sz.min_reps)
    while budget.more():
        t0 = time.perf_counter()
        s = _guard(tally, "setup", setup)
        w = _guard(tally, "analyze", work)
        budget.done(time.perf_counter() - t0)
        if s is not None:
            setups.append(s[0])
        if w is not None:
            walls.append(w[0])
            rsss.append(w[1])
    if not walls or not setups:
        return {}
    return {
        "end_to_end": {
            "setup_s": summary(setups),
            "peak_rss_mb": summary(rsss),
        },
        "workload_metrics": {
            "events_per_s": info([events / w for w in walls], "events/s"),
            "ops_per_s": info([1.0 / w for w in walls], "1/s"),
            "analyze_s": info(walls, "s"),
        },
        "measured_s": time.perf_counter() - budget.t0,
        "command": ["python", "-m", "repro", "analyze", "<trace>", "--json"],
    }


# -- serve-grow ---------------------------------------------------------------


class Daemon:
    """One ``repro serve`` child on an ephemeral port (default flags)."""

    def __init__(self, state: Path) -> None:
        self.state = state
        shutil.rmtree(state, ignore_errors=True)
        state.mkdir(parents=True)
        self.argv = [sys.executable, "-m", "repro", "serve",
                     "--state", str(state), "--port", "0"]
        self.log = open(state.parent / (state.name + ".log"), "wb")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(self.argv, stdout=self.log,
                                     stderr=subprocess.STDOUT,
                                     env=scrubbed_env(), cwd=str(WORK))
        try:
            self.base = self._wait_ready(t0 + 60.0)
        except BaseException:
            self.stop()
            raise
        self.ready_s = time.perf_counter() - t0

    def _wait_ready(self, deadline: float) -> str:
        from repro.serve.client import ServerUnavailable, request

        endpoint = self.state / "serve.json"
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"daemon exited with {self.proc.returncode}")
            try:
                ep = json.loads(endpoint.read_text())
                base = f"http://{ep['host']}:{ep['port']}"
                if request(f"{base}/readyz", timeout=2.0)[0] == 200:
                    return base
            except (OSError, ValueError, KeyError, ServerUnavailable):
                pass
            time.sleep(0.005)
        raise RuntimeError("daemon not ready within 60 s")

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of the daemon (read while it still runs)."""
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> int:
        """SIGTERM (graceful drain), then wait; SIGKILL if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()
        return self.proc.returncode


def submit_to_verdict(base: str, trace: Path) -> Tuple[float, dict, dict]:
    """One closed-loop request: submit, poll to terminal, fetch the result."""
    from repro.serve.client import poll_job, request, submit_with_retry

    t0 = time.perf_counter()
    status, _, job, _ = submit_with_retry(base, trace, max_wait_s=30.0)
    if status not in (200, 202):
        raise RuntimeError(f"submit answered {status}: {job}")
    if job["state"] not in ("done", "failed", "quarantined"):
        job = poll_job(base, job["id"], timeout_s=OP_TIMEOUT_S,
                       interval_s=POLL_S)
    result = {}
    if job["state"] == "done":
        status, _, result = request(f"{base}/jobs/{job['id']}/result")
        if status != 200:
            raise RuntimeError(f"result answered {status}")
    return time.perf_counter() - t0, job, result


def check_served(tally: Tally, what: str, job: dict, result: dict,
                 oracle: dict, kind: str) -> bool:
    """A served verdict matches the oracle and came the expected way.

    Whether a grown resubmission prefix-resumed is left to the caller.
    """
    ok = job.get("state") == "done" and bool(result)
    why = f"state {job.get('state')}"
    if ok:
        got = verdict_digest(result["verdicts"], result["forensics"])
        ok = got == oracle["digest"] and (
            result["events_total"] == oracle["events"])
        why = f"digest {got[:12]}, events {result['events_total']}"
    if ok and kind == "cold":
        ok, why = not job.get("cached") and not job.get("resumed"), \
            "cold job was cached or resumed"
    elif ok and kind == "cached":
        ok, why = bool(job.get("cached")), "resubmission missed the cache"
    return tally.check(ok, f"{what}: {why}")


def serve_round(base: str, manifest: dict, key: str, ncached: int,
                tally: Tally) -> dict:
    """cold → grown (prefix-resume) → ``ncached`` cache hits; op walls.

    The daemon reports a job ``done`` before it indexes the trace as a
    prefix-resume ancestor (``Scheduler._finish``), so a grown
    resubmission sent at once can race that step and be analysed from
    scratch, with the right verdict.  Such a miss is listed in
    ``walls["missed"]`` and its wall kept in ``walls["resume"]`` (what
    the client waited), not counted as a failure.
    """
    grown = key + "-grown"
    walls = {"cold": [], "resume": [], "cached": [], "missed": []}
    steps = [("cold", key), ("resume", grown)] + [("cached", grown)] * ncached
    for kind, input_key in steps:
        path = INPUTS / manifest["files"][input_key]["path"]
        res = _guard(tally, f"{key} {kind}",
                     lambda: submit_to_verdict(base, path))
        if res is None:
            continue
        wall, job, result = res
        if check_served(tally, f"{key} {kind}", job, result,
                        manifest["oracle"][input_key], kind):
            walls[kind].append(wall)
            if kind == "resume" and not (job.get("resumed_from")
                                         and job.get("resumed")):
                walls["missed"].append(input_key)
    return walls


def serve_rounds(manifest: dict) -> List[str]:
    """The timed rounds' input keys, in order (warm-up rounds excluded)."""
    return sorted((k for k in manifest["files"]
                   if k.startswith("round-") and not k.endswith("-grown")),
                  key=lambda k: int(k.split("-")[1]))


def run_serve(manifest: dict, seconds: float, sz: Sizes,
              tally: Tally) -> dict:
    work = WORK / "serve"
    daemon = Daemon(work / "state")
    setups = [daemon.ready_s]
    cold, resume, cached, round_ops, events_per_s = [], [], [], [], []
    missed: List[str] = []
    try:
        for j in range(sz.warmup):
            serve_round(daemon.base, manifest, f"warm-{j}", sz.serve_cached,
                        tally)
        budget = Budget(seconds, sz.min_reps)
        for key in serve_rounds(manifest):
            if not budget.more():
                break
            t0 = time.perf_counter()
            if len(setups) < sz.setup_samples:
                probe = _guard(tally, "setup probe",
                               lambda: Daemon(work / "probe"))
                if probe is not None:
                    tally.check(probe.stop() == 0, "probe daemon drain")
                    setups.append(probe.ready_s)
            walls = serve_round(daemon.base, manifest, key, sz.serve_cached,
                                tally)
            budget.done(time.perf_counter() - t0)
            cold += walls["cold"]
            resume += walls["resume"]
            cached += walls["cached"]
            missed += walls["missed"]
            ops = walls["cold"] + walls["resume"] + walls["cached"]
            if ops:
                round_ops.append(len(ops) / sum(ops))
            for w in walls["cold"]:
                events_per_s.append(manifest["oracle"][key]["events"] / w)
        rss = daemon.peak_rss_mb()
    finally:
        code = daemon.stop()
    tally.check(code == 0, f"daemon drain exit {code}")
    tally.invariant(len(missed) < len(resume),
                    f"no grown resubmission prefix-resumed ({missed})")
    if not (cold and resume and cached and round_ops):
        return {}
    busy = sum(cold) + sum(resume) + sum(cached)
    return {
        "end_to_end": {
            "setup_s": summary(setups),
            "peak_rss_mb": summary([rss]),
        },
        "workload_metrics": {
            "events_per_s": info(events_per_s, "events/s"),
            "ops_per_s": info(round_ops, "1/s"),
            "cold_s": info(cold, "s"),
            "resume_s": info(resume, "s"),
            "cached_s": info(cached, "s"),
        },
        # how much of ops_per_s each kind of request accounts for
        "request_share": {k: {"requests": len(v) / len(cold + resume + cached),
                              "time": sum(v) / busy}
                          for k, v in (("cold", cold), ("resume", resume),
                                       ("cached", cached))},
        "resume_missed": missed,
        "measured_s": time.perf_counter() - budget.t0,
        "command": ["python", "-m", "repro", "serve", "--state", "<dir>",
                    "--port", "0"],
    }


# -- live-sim -----------------------------------------------------------------


def live_setup(spec: dict) -> dict:
    """Build the live run's inputs: graph, comm plan, partitions, corpus."""
    from inputs import cfd_args, minivite_args
    from repro.scenarios import generate_corpus

    return {
        "minivite": minivite_args(spec["minivite_vertices"],
                                  spec["graph_seed"]),
        "cfd": cfd_args(spec["cfd_iterations"]),
        "corpus": generate_corpus(spec["corpus_seed"], spec["scenarios"]),
    }


def live_op(built: dict, manifest: dict, tally: Tally) -> Tuple[float, float]:
    """One live op: both apps under the detector, then corpus scoring."""
    from repro.apps.harness import detector_factory, run_app
    from repro.pipeline.engine import canonical_forensics, canonical_verdicts
    from repro.scenarios.score import gate_violations, score_corpus

    t0 = time.perf_counter()
    runs = []
    for app in ("minivite", "cfd"):
        program, args = built[app]
        det = detector_factory("Our Contribution")()
        runs.append((app, run_app(app, program, NRANKS, det, *args), det))
    t1 = time.perf_counter()
    report = score_corpus(built["corpus"], tools=("our",))
    t2 = time.perf_counter()
    for app, run, det in runs:
        oracle = manifest["oracle"][app]
        got = verdict_digest(canonical_verdicts(det.reports),
                             canonical_forensics(det.reports))
        tally.check(got == oracle["digest"] and run.races == oracle["races"],
                    f"live {app}: races {run.races}, digest {got[:12]}")
    violations = gate_violations(report)
    tally.check(not violations and report["scenarios"] == len(built["corpus"]),
                f"scenario gate: {violations[:3]}")
    return t1 - t0, t2 - t1


def run_live(manifest: dict, seconds: float, sz: Sizes,
             tally: Tally) -> dict:
    spec = manifest["spec"]
    events = sum(manifest["oracle"][app]["events"]
                 for app in ("minivite", "cfd"))

    def setup():
        t0 = time.perf_counter()
        built = live_setup(spec)
        return time.perf_counter() - t0, built

    for _ in range(sz.warmup):
        s = _guard(tally, "warm-up setup", setup)
        if s is not None:
            _guard(tally, "warm-up", lambda: live_op(s[1], manifest, tally))
    setups, app_walls, score_walls = [], [], []
    budget = Budget(seconds, sz.min_reps)
    while budget.more():
        t0 = time.perf_counter()
        s = _guard(tally, "setup", setup)
        if s is not None:
            setups.append(s[0])
            w = _guard(tally, "live op", lambda: live_op(s[1], manifest,
                                                         tally))
            if w is not None:
                app_walls.append(w[0])
                score_walls.append(w[1])
        budget.done(time.perf_counter() - t0)
    if not app_walls:
        return {}
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    nsc = spec["scenarios"]
    return {
        "end_to_end": {
            "setup_s": summary(setups),
            "peak_rss_mb": summary([rss]),
        },
        "workload_metrics": {
            "events_per_s": info([events / w for w in app_walls], "events/s"),
            "ops_per_s": info([nsc / w for w in score_walls], "1/s"),
            "apps_s": info(app_walls, "s"),
            "score_s": info(score_walls, "s"),
        },
        "measured_s": time.perf_counter() - budget.t0,
        "command": ["apps.harness.run_app(minivite, cfd)",
                    "scenarios.score.score_corpus(tools=('our',))"],
    }
