"""``repro submit`` and ``repro jobs``: a running daemon's client side."""

from __future__ import annotations

import sys

from ..detectors import detector_names
from ..exitcodes import (EX_ERROR, EX_JOB_FAILED, EX_OK, EX_PARTIAL,
                         EX_UNAVAILABLE)


def _submit_arguments(sb) -> None:
    sb.description = ("Upload a recorded trace to 'repro serve' and print "
                      "the accepted job; --wait polls to a terminal state "
                      "(riding out daemon restarts).")
    sb.add_argument("trace", help="trace file written by 'repro record'")
    sb.add_argument("--server", default=None, metavar="URL",
                    help="daemon base URL, e.g. http://127.0.0.1:8787")
    sb.add_argument("--state", default=None, metavar="DIR",
                    help="discover the daemon via DIR/serve.json instead "
                         "of --server")
    sb.add_argument("--detector", choices=detector_names(), default="our",
                    help="detector to analyze under (default: our)")
    sb.add_argument("--tenant", default="default",
                    help="tenant name for admission accounting")
    sb.add_argument("--max-wait-s", type=float, default=0.0, metavar="SEC",
                    help="on 429/503 backpressure, retry with the server's "
                         "Retry-After plus jittered exponential backoff for "
                         "up to SEC seconds (default: no retry)")
    sb.add_argument("--wait", action="store_true",
                    help="poll until the job is done/failed/quarantined")
    sb.add_argument("--timeout-s", type=float, default=120.0, metavar="SEC",
                    help="--wait polling budget (default 120)")
    sb.add_argument("--json", action="store_true",
                    help="emit the final job record as JSON")


def _jobs_arguments(jb) -> None:
    jb.description = "List a daemon's jobs, or show one job by id."
    jb.add_argument("job", nargs="?", default=None,
                    help="job id to show (default: list all)")
    jb.add_argument("--server", default=None, metavar="URL",
                    help="daemon base URL")
    jb.add_argument("--state", default=None, metavar="DIR",
                    help="discover the daemon via DIR/serve.json")
    jb.add_argument("--json", action="store_true",
                    help="emit raw JSON")


def _job_line(job: dict) -> str:
    tail = ""
    if job.get("state") == "done":
        tail = (f"  races={job.get('races')}"
                + ("  (cached)" if job.get("cached") else ""))
    elif job.get("reason"):
        tail = f"  {job['reason']}"
    return (f"{job.get('id', '?'):8s} {job.get('state', '?'):12s} "
            f"{job.get('detector', '?'):5s} tenant={job.get('tenant', '?')}"
            f"{tail}")


def _submit(args) -> int:
    import json

    from ..serve import (
        ServerUnavailable,
        poll_job,
        resolve_server,
        submit_trace,
        submit_with_retry,
    )

    attempts = 1
    try:
        base = resolve_server(args.server, args.state)
        if args.max_wait_s > 0:
            status, headers, payload, attempts = submit_with_retry(
                base, args.trace, detector=args.detector,
                tenant=args.tenant, max_wait_s=args.max_wait_s)
        else:
            status, headers, payload = submit_trace(
                base, args.trace, detector=args.detector, tenant=args.tenant)
    except ServerUnavailable as exc:
        print(f"repro submit: {exc}", file=sys.stderr)
        return EX_UNAVAILABLE
    except OSError as exc:
        print(f"repro submit: {exc}", file=sys.stderr)
        return EX_ERROR
    if status in (429, 503):
        retry = headers.get("Retry-After", "?")
        tried = f" after {attempts} attempt(s)" if attempts > 1 else ""
        print(f"repro submit: rejected{tried}: {payload.get('error')} "
              f"(Retry-After: {retry}s)", file=sys.stderr)
        return EX_UNAVAILABLE
    if status not in (200, 202):
        print(f"repro submit: HTTP {status}: {payload.get('error', payload)}",
              file=sys.stderr)
        return EX_ERROR
    job = payload
    if args.wait and job.get("state") not in ("done", "failed",
                                              "quarantined"):
        job = poll_job(base, job["id"], timeout_s=args.timeout_s)
    if args.json:
        print(json.dumps(job, indent=2))
    else:
        print(_job_line(job))
    state = job.get("state")
    if state == "done":
        return EX_OK
    if state in ("failed", "quarantined"):
        return EX_JOB_FAILED
    # accepted but not waited for (or still live at the poll deadline)
    return EX_OK if not args.wait else EX_PARTIAL


def _jobs(args) -> int:
    import json

    from ..serve import ServerUnavailable, request, resolve_server

    try:
        base = resolve_server(args.server, args.state)
        if args.job:
            status, _, payload = request(f"{base}/jobs/{args.job}")
        else:
            status, _, payload = request(f"{base}/jobs")
    except ServerUnavailable as exc:
        print(f"repro jobs: {exc}", file=sys.stderr)
        return EX_UNAVAILABLE
    if status != 200:
        print(f"repro jobs: HTTP {status}: {payload.get('error', payload)}",
              file=sys.stderr)
        return EX_ERROR
    if args.json:
        print(json.dumps(payload, indent=2))
        return EX_OK
    jobs = payload.get("jobs", [payload] if args.job else [])
    if not jobs:
        print("no jobs")
    for job in jobs:
        print(_job_line(job))
    return EX_OK


COMMANDS = {
    "submit": (_submit_arguments, _submit),
    "jobs": (_jobs_arguments, _jobs),
}
