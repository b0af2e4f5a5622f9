"""Command-line entry point: ``python -m repro`` / the ``repro`` script.

Subcommands::

    repro list                 # available experiments
    repro run <exp> [...]      # regenerate one or more tables/figures
    repro all                  # every experiment, in paper order
    repro suite                # microbenchmark suite summary
    repro record <app>         # record an application trace to disk
    repro analyze <trace>      # post-mortem race analysis
    repro explain <trace>      # annotated race forensics for a trace
    repro serve                # crash-safe analysis daemon (HTTP)
    repro submit <trace>       # submit a trace to a running daemon
    repro jobs                 # inspect a daemon's job table

Examples::

    repro run table3
    repro run fig10 fig11
    repro record minivite --ranks 8 -o mv.trace
    repro analyze mv.trace --detector our
    repro analyze mv.trace --trace-out mv.chrome.json --report-html mv.html
    repro explain mv.trace --context 4
    repro serve --state /tmp/svc --port 8787
    repro submit mv.trace --server http://127.0.0.1:8787 --wait

Exit codes are a contract (see :mod:`repro.exitcodes`): 0 success,
1 gate violation, 2 usage/operational error, 3 recorded app failed,
4 partial (resumable) analysis, 5 submitted job failed, 6 server
unavailable, 7 trace diverged from its analyzed prefix, 143 SIGTERM.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import List, Optional

from . import __version__
from .detectors import detector_class, detector_names
from .exitcodes import (
    EX_APP_FAILED,
    EX_DIVERGED,
    EX_ERROR,
    EX_GATE_FAILED,
    EX_JOB_FAILED,
    EX_OK,
    EX_PARTIAL,
    EX_UNAVAILABLE,
)

__all__ = ["main", "build_parser"]

#: CLI names of the experiments / recordable apps, kept in sync with
#: repro.experiments and repro.pipeline by tests — importing those here
#: would drag the simulator, the app layer and numpy into every CLI
#: start, ``repro analyze`` and ``repro serve`` included
_EXPERIMENT_IDS = ("table1", "fig3", "fig5", "fig8", "table2", "table3",
                   "fig9", "fig10", "fig11", "fig12", "table4", "static",
                   "extensions")
_RECORD_APPS = ("cfd", "histogram", "minivite")


def _experiments():
    from .experiments import EXPERIMENTS

    return EXPERIMENTS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Rethinking Data Race Detection in MPI-RMA "
            "Programs' (Correctness@SC-W 2023)"
        ),
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    detectors = detector_names()

    sub.add_parser("list", help="list available experiments")

    run = sub.add_parser("run", help="run one or more experiments")
    run.add_argument("experiments", nargs="+", metavar="EXP",
                     help=f"one of: {', '.join(_EXPERIMENT_IDS)}")
    run.add_argument("--json", action="store_true",
                     help="emit machine-readable JSON instead of tables")
    run.add_argument("--trace-out", default=None, metavar="PATH",
                     help="export the run's event timeline as Chrome "
                          "trace-event JSON (chrome://tracing, Perfetto); "
                          "bounded by the REPRO_OBS_TIMELINE ring")
    _add_metrics_args(run)

    sub.add_parser("all", help="run every experiment in paper order")

    suite = sub.add_parser("suite", help="microbenchmark suite summary")
    suite.add_argument("--names", action="store_true",
                       help="also print every generated code name")

    rec = sub.add_parser(
        "record", help="run an application and record its trace",
        description="Run a simulated application with the streaming "
                    "recorder attached (no detector) and write the trace.",
    )
    rec.add_argument("app", choices=_RECORD_APPS,
                     help="application to record")
    rec.add_argument("--ranks", type=int, default=None, metavar="N",
                     help="simulated MPI ranks (default: per-app)")
    rec.add_argument("--size", type=int, default=None, metavar="S",
                     help="workload size knob (vertices / iterations / "
                          "samples, per app)")
    rec.add_argument("--inject-race", action="store_true",
                     help="inject the Fig. 9a duplicated-put race "
                          "(minivite only)")
    rec.add_argument("-o", "--out", default=None, metavar="PATH",
                     help="output repro-trace-v2 path (default: "
                          "<app>.trace)")
    _add_metrics_args(rec)

    an = sub.add_parser(
        "analyze", help="post-mortem race analysis of a recorded trace",
        description="Stream a recorded repro-trace-v2 trace through a "
                    "detector, in this process.",
    )
    an.add_argument("trace", help="trace file written by 'repro record'")
    an.add_argument("--detector", choices=detectors, default="our",
                    help="detector to replay under (default: our)")
    # parsed and ignored (one stderr line says so): the e2e benchmark's
    # traced run still passes them; analysis always runs in one process
    an.add_argument("--jobs", type=int, help=argparse.SUPPRESS)
    an.add_argument("--dispatch", help=argparse.SUPPRESS)
    an.add_argument("--salvage", action="store_true",
                    help="best-effort read of damaged traces: quarantine "
                         "corrupt/truncated chunks instead of aborting, "
                         "and report the loss")
    an.add_argument("--ckpt-dir", default=None, metavar="DIR",
                    help="write repro-ckpt-v1 checkpoints of in-flight "
                         "analysis state to DIR; --resume picks up "
                         "mid-trace instead of replaying from byte 0")
    an.add_argument("--ckpt-every", type=int, default=None, metavar="N",
                    help="pin the checkpoint cadence to every N trace "
                         "chunks (default: amortized — placed so "
                         "checkpoint work stays within 5%% of analysis)")
    an.add_argument("--deadline-s", type=float, default=None, metavar="SEC",
                    help="wall-clock budget: past it the analysis "
                         "checkpoints, stops, and reports a partial "
                         "verdict (exit code 4, resumable with --resume; "
                         "needs --ckpt-dir)")
    an.add_argument("--max-rss-mb", type=int, default=None, metavar="MB",
                    help="memory budget: current RSS above it at a "
                         "chunk boundary checkpoints and stops like "
                         "--deadline-s (needs --ckpt-dir)")
    an.add_argument("--follow", action="store_true",
                    help="tail a live-growing trace: at end-of-file wait "
                         "for more chunks instead of finishing; requires "
                         "--ckpt-dir (progress checkpoints at chunk "
                         "boundaries survive kill -9)")
    an.add_argument("--follow-timeout-s", type=float, default=None,
                    metavar="SEC",
                    help="with --follow: stop (partial, resumable) after "
                         "SEC seconds without new chunks or a trailer")
    an.add_argument("--resume", default=None, metavar="DIR",
                    help="resume from the newest valid checkpoint in DIR "
                         "(implies --ckpt-dir DIR)")
    an.add_argument("--json", action="store_true",
                    help="emit the full machine-readable report")
    an.add_argument("--trace-out", default=None, metavar="PATH",
                    help="export the full trace as Chrome trace-event "
                         "JSON with detected races overlaid")
    an.add_argument("--report-html", default=None, metavar="PATH",
                    help="write a self-contained HTML race report "
                         "(race cards + per-rank timeline lanes)")
    _add_metrics_args(an)

    ex = sub.add_parser(
        "explain", help="annotated race forensics for a recorded trace",
        description="Analyze a trace and print, per detected race, the "
                    "racing pair with both source locations, the "
                    "window's epoch/sync state at detection time, and "
                    "the surrounding per-rank event timeline.",
    )
    ex.add_argument("trace", help="trace file written by 'repro record'")
    ex.add_argument("--detector", choices=detectors, default="our",
                    help="detector to replay under (default: our)")
    ex.add_argument("--context", type=int, default=8, metavar="K",
                    help="surrounding timeline events shown per rank "
                         "(default 8)")
    ex.add_argument("--salvage", action="store_true",
                    help="best-effort read of damaged traces, as "
                         "'repro analyze --salvage' reads them")
    ex.add_argument("--json", action="store_true",
                    help="emit the repro-forensics-v1 bundles as JSON")
    ex.add_argument("--html", default=None, metavar="PATH",
                    help="also write the self-contained HTML report")

    sc = sub.add_parser(
        "scenarios",
        help="labeled scenario corpus: generate / score / gate",
        description="Seeded, ground-truth-labeled MPI-RMA scenarios "
                    "(RMARaceBench-style) and the detector scoring "
                    "harness over them.",
    )
    scsub = sc.add_subparsers(dest="scenarios_cmd", required=True)

    gen = scsub.add_parser(
        "generate", help="compose a labeled corpus (deterministic per seed)")
    gen.add_argument("--seed", type=int, default=7, metavar="S",
                     help="corpus seed; the same seed always produces a "
                          "byte-identical corpus (default 7)")
    gen.add_argument("-n", "--count", type=int, default=60, metavar="N",
                     help="number of scenarios (default 60)")
    gen.add_argument("-o", "--out", default="scenarios.jsonl", metavar="PATH",
                     help="output corpus, JSON lines (default "
                          "scenarios.jsonl; '-' for stdout)")
    _add_metrics_args(gen)

    sco = scsub.add_parser(
        "score", help="score every detector against a labeled corpus")
    sco.add_argument("corpus", help="corpus written by 'scenarios generate'")
    sco.add_argument("-o", "--out", default=None, metavar="PATH",
                     help="write the repro-scenarios-v1 JSON report here "
                          "(default: stdout)")
    sco.add_argument("--tools", default=None, metavar="T1,T2",
                     help="comma-separated tool subset (default: all)")
    _add_metrics_args(sco)

    gate = scsub.add_parser(
        "gate", help="fail when a detector scores below the floor")
    gate.add_argument("corpus", nargs="?", default=None,
                      help="corpus to score (omit with --report)")
    gate.add_argument("--report", default=None, metavar="PATH",
                      help="gate a previously written score report "
                           "instead of re-scoring")
    gate.add_argument("--detector", default="our",
                      help="tool the floor applies to (default: our)")
    gate.add_argument("--min-precision", type=float, default=1.0,
                      metavar="P", help="per-category floor (default 1.0)")
    gate.add_argument("--min-recall", type=float, default=1.0,
                      metavar="R", help="per-category floor (default 1.0)")
    gate.add_argument("--include-hybrid", action="store_true",
                      help="also gate the hybrid local+remote categories "
                           "(default: non-hybrid only, the Table-3 claim)")
    _add_metrics_args(gate)

    srv = sub.add_parser(
        "serve", help="run the crash-safe analysis daemon",
        description="Serve trace analysis over HTTP with a durable "
                    "(journaled, fsync'd) job queue: after a hard kill, "
                    "a restart replays the journal and resumes every "
                    "in-flight analysis from its last checkpoint.",
    )
    srv.add_argument("--state", required=True, metavar="DIR",
                     help="daemon state directory (journal, traces, "
                          "checkpoints, verdict cache, serve.json)")
    srv.add_argument("--host", default="127.0.0.1",
                     help="bind address (default 127.0.0.1)")
    srv.add_argument("--port", type=int, default=0, metavar="P",
                     help="listen port (default 0 = ephemeral; the "
                          "chosen port is published in serve.json)")
    srv.add_argument("--workers", type=int, default=2, metavar="N",
                     help="analysis worker threads (default 2)")
    srv.add_argument("--max-queue", type=int, default=16, metavar="N",
                     help="admission bound on queued+running jobs; past "
                          "it submissions get 429 (default 16)")
    srv.add_argument("--tenant-cap", type=int, default=4, metavar="N",
                     help="concurrent live jobs per tenant (default 4)")
    srv.add_argument("--retries", type=int, default=2, metavar="R",
                     help="retries before a repeatedly failing job is "
                          "quarantined as poison (default 2)")
    srv.add_argument("--deadline-s", type=float, default=None, metavar="SEC",
                     help="per-job wall-clock budget (checkpoint + fail "
                          "past it; default: none)")
    srv.add_argument("--max-rss-mb", type=int, default=None, metavar="MB",
                     help="memory budget: a job stops (failed, "
                          "guard:memory) when the daemon's current RSS "
                          "exceeds it at a chunk boundary (default: none)")
    srv.add_argument("--ckpt-every", type=int, default=None, metavar="N",
                     help="pin each job's checkpoint cadence to every N "
                          "trace chunks (default: amortized; a finished "
                          "job always keeps its final checkpoint)")
    srv.add_argument("--drain-s", type=float, default=10.0, metavar="SEC",
                     help="graceful-drain budget on SIGTERM (default 10)")
    srv.add_argument("--cache-max", type=int, default=256, metavar="N",
                     help="verdict-cache entries kept before LRU eviction "
                          "(0 = unbounded; default %(default)s)")
    srv.add_argument("--max-body-mb", type=int, default=256, metavar="MB",
                     help="largest accepted trace upload (default 256)")
    srv.add_argument("--verbose", action="store_true",
                     help="log every HTTP request")

    sb = sub.add_parser(
        "submit", help="submit a trace to a running daemon",
        description="Upload a recorded trace to 'repro serve' and print "
                    "the accepted job; --wait polls to a terminal state "
                    "(riding out daemon restarts).",
    )
    sb.add_argument("trace", help="trace file written by 'repro record'")
    sb.add_argument("--server", default=None, metavar="URL",
                    help="daemon base URL, e.g. http://127.0.0.1:8787")
    sb.add_argument("--state", default=None, metavar="DIR",
                    help="discover the daemon via DIR/serve.json instead "
                         "of --server")
    sb.add_argument("--detector", choices=detectors, default="our",
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

    jb = sub.add_parser(
        "jobs", help="inspect a running daemon's job table",
        description="List a daemon's jobs, or show one job by id.",
    )
    jb.add_argument("job", nargs="?", default=None,
                    help="job id to show (default: list all)")
    jb.add_argument("--server", default=None, metavar="URL",
                    help="daemon base URL")
    jb.add_argument("--state", default=None, metavar="DIR",
                    help="discover the daemon via DIR/serve.json")
    jb.add_argument("--json", action="store_true",
                    help="emit raw JSON")
    return parser


def _add_metrics_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--metrics", action="store_true",
                     help="print the observability metrics table "
                          "(counters, gauges, histograms, spans)")
    sub.add_argument("--metrics-json", default=None, metavar="PATH",
                     help="dump the metrics snapshot (repro-obs-v1 "
                          "JSON) to PATH")


def _atomic_write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` via tmp + fsync + ``os.replace``.

    Reports are consumed by CI and gating scripts; a SIGTERM or crash
    mid-write must leave either the old file or the new one on disk,
    never a torn hybrid that parses as a truncated result.
    """
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def _emit_metrics(snap, *, show: bool, json_path: Optional[str],
                  file=None) -> None:
    """Render/dump one registry snapshot for --metrics/--metrics-json
    (the table goes to ``file``, stdout by default)."""
    from . import obs

    if snap is None:  # REPRO_OBS=off — emit an empty-but-valid snapshot
        snap = {"schema": "repro-obs-v1", "counters": {}, "gauges": {},
                "histograms": {}, "spans": {}}
    if show:
        print(obs.render_metrics(snap), file=file)
    if json_path:
        _atomic_write_text(json_path, obs.snapshot_to_json(snap) + "\n")


def _jsonable(value):
    """Best-effort conversion of experiment payloads to JSON types."""
    import dataclasses

    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _jsonable(dataclasses.asdict(value))
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def _run_one(exp_id: str, *, as_json: bool = False) -> int:
    fn = _experiments().get(exp_id)
    if fn is None:
        print(f"unknown experiment {exp_id!r}; "
              f"valid names: {', '.join(_EXPERIMENT_IDS)}",
              file=sys.stderr)
        return EX_ERROR
    t0 = time.perf_counter()
    result = fn()
    dt = time.perf_counter() - t0
    if as_json:
        import json

        print(json.dumps({
            "experiment": result.exp_id,
            "title": result.title,
            "seconds": round(dt, 3),
            "data": _jsonable(result.data),
        }, indent=2))
    else:
        print(result)
        print(f"[{exp_id} regenerated in {dt:.1f}s]\n")
    return EX_OK


def _graceful_sigterm() -> None:
    """Turn SIGTERM into ``SystemExit(143)`` so cleanup actually runs.

    ``record`` holds a resource a hard kill would leak: the
    ``<out>.tmp`` recorder file (removed by the writer's ``abort``).
    Python's default SIGTERM disposition ends the process without
    unwinding, so the CLI converts the signal into an exception.
    Only the default handler is replaced — an embedder's own handler
    (or pytest's) stays untouched unless it is SIG_DFL.
    """
    import signal
    import threading

    if threading.current_thread() is not threading.main_thread():
        return  # pragma: no cover - signal API is main-thread only
    if signal.getsignal(signal.SIGTERM) == signal.SIG_DFL:
        signal.signal(signal.SIGTERM,
                      lambda signum, frame: sys.exit(128 + signum))


def main(argv: Optional[List[str]] = None) -> int:
    try:
        status = _main(argv)
        sys.stdout.flush()  # a reader gone after the last write fails here
    except BrokenPipeError:
        # the reader went away (``repro explain t | head -3``): point
        # stdout at devnull so the exit-time flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EX_ERROR
    return status


def _main(argv: Optional[List[str]]) -> int:
    _graceful_sigterm()
    args = build_parser().parse_args(argv)

    if args.command == "list":
        for exp_id, fn in _experiments().items():
            doc = (fn.__doc__ or "").strip().splitlines()[0]
            print(f"{exp_id:8s} {doc}")
        return EX_OK

    if args.command == "run":
        from . import obs

        status = EX_OK
        # one fresh scope over every experiment: the detectors publish
        # into it and the CLI prints Table-4-consistent counts from it
        with obs.scope() as reg:
            for exp_id in args.experiments:
                status = max(status, _run_one(exp_id, as_json=args.json))
            if args.metrics or args.metrics_json:
                snap = reg.snapshot() if reg.enabled else None
                _emit_metrics(snap, show=args.metrics,
                              json_path=args.metrics_json)
            if args.trace_out:
                tl = reg.timeline
                _write_chrome(args.trace_out,
                              timeline=tl.snapshot() if tl is not None
                              else None)
        return status

    if args.command == "all":
        status = EX_OK
        for exp_id in _experiments():
            status = max(status, _run_one(exp_id))
        return status

    if args.command == "suite":
        from .microbench import generate_suite

        suite = generate_suite()
        races = sum(1 for s in suite if s.racy)
        print(f"{len(suite)} codes: {races} race / {len(suite) - races} safe")
        if args.names:
            for spec in suite:
                print(f"  {spec.name}")
        return EX_OK

    if args.command == "record":
        return _record(args)

    if args.command == "analyze":
        return _analyze(args)

    if args.command == "explain":
        return _explain(args)

    if args.command == "scenarios":
        return _scenarios(args)

    if args.command == "serve":
        return _serve(args)

    if args.command == "submit":
        return _submit(args)

    if args.command == "jobs":
        return _jobs(args)

    return EX_ERROR  # pragma: no cover


def _write_chrome(path: str, *, timeline=None, trace_path=None,
                  salvage: bool = False, verdicts=(), file=None) -> None:
    """Write a Chrome trace-event file from either producer.

    ``trace_path`` re-streams a recorded trace (full fidelity), read in
    the analysis's ``salvage`` mode so a quarantined chunk stays out of
    the export as it stayed out of the analysis; ``timeline`` exports a
    bounded repro-timeline-v1 snapshot.  The status line goes to
    ``file`` (stdout by default).
    """
    from .obs.chrometrace import (
        chrome_events_from_timeline,
        chrome_events_from_trace,
        write_chrome_trace,
    )

    if trace_path is not None:
        from .pipeline import TraceReader

        reader = TraceReader(trace_path, strict=not salvage)
        events = chrome_events_from_trace(iter(reader), reader.nranks)
    else:
        events = chrome_events_from_timeline(timeline)
    n = write_chrome_trace(path, events, verdicts)
    print(f"chrome trace: {n} events -> {path}", file=file)


def _record(args) -> int:
    from . import obs
    from .mpi.errors import MpiSimError
    from .pipeline import record_app

    out = args.out or f"{args.app}.trace"
    with obs.scope() as reg:
        try:
            t0 = time.perf_counter()
            result = record_app(
                args.app, nranks=args.ranks, size=args.size,
                inject_race=args.inject_race, out=out,
            )
            dt = time.perf_counter() - t0
        except ValueError as exc:
            print(f"repro record: {exc}", file=sys.stderr)
            return EX_ERROR
        except MpiSimError as exc:
            # the *recorded application* misbehaved (deadlock, RMA
            # misuse): one line naming the failure, no partial trace
            # left behind
            print(f"repro record: {args.app} failed: "
                  f"{type(exc).__name__}: {exc}", file=sys.stderr)
            return EX_APP_FAILED
        if args.metrics or args.metrics_json:
            snap = reg.snapshot() if reg.enabled else None
            _emit_metrics(snap, show=args.metrics,
                          json_path=args.metrics_json)
    print(f"recorded {result.app} on {result.nranks} ranks: "
          f"{result.events} events -> {result.path} "
          f"({dt:.1f}s)")
    return EX_OK


def _analyze(args) -> int:
    from .mpi.errors import (
        CheckpointError,
        TraceDivergedError,
        TraceFormatError,
    )
    from .pipeline import analyze_trace

    if args.jobs is not None or args.dispatch is not None:
        print("repro analyze: --jobs/--dispatch are ignored; analysis "
              "runs in one process", file=sys.stderr)
    ckpt_dir = args.ckpt_dir
    resume = False
    if args.resume is not None:
        if ckpt_dir is not None and ckpt_dir != args.resume:
            print("repro analyze: --resume and --ckpt-dir disagree",
                  file=sys.stderr)
            return EX_ERROR
        ckpt_dir = args.resume
        resume = True
    try:
        result = analyze_trace(
            args.trace, detector=args.detector, salvage=args.salvage,
            ckpt_dir=ckpt_dir, ckpt_every=args.ckpt_every,
            deadline_s=args.deadline_s, max_rss_mb=args.max_rss_mb,
            resume=resume, follow=args.follow,
            follow_timeout_s=args.follow_timeout_s,
        )
    except TraceDivergedError as exc:
        # the trace on disk is not an extension of the analyzed prefix:
        # retrying cannot help and resuming would blend two histories —
        # a dedicated exit code so wrappers re-record instead of re-run
        print(f"repro analyze: DIVERGED: {exc}", file=sys.stderr)
        return EX_DIVERGED
    except (TraceFormatError, CheckpointError, OSError, ValueError) as exc:
        print(f"repro analyze: {exc}", file=sys.stderr)
        return EX_ERROR

    # with --json, stdout carries the JSON body alone
    status = sys.stderr if args.json else sys.stdout
    if args.metrics or args.metrics_json:
        _emit_metrics(result.obs, show=args.metrics,
                      json_path=args.metrics_json, file=status)
    if args.trace_out:
        try:
            _write_chrome(args.trace_out, trace_path=args.trace,
                          salvage=args.salvage, verdicts=result.verdicts,
                          file=status)
        except OSError as exc:
            print(f"repro analyze: --trace-out failed: {exc}",
                  file=sys.stderr)
            return EX_ERROR
    if args.report_html:
        from .obs.htmlreport import render_html_report

        try:
            _atomic_write_text(args.report_html, render_html_report(
                result.to_dict(),
                title=f"repro race report — {args.trace}"))
        except OSError as exc:
            print(f"repro analyze: --report-html failed: {exc}",
                  file=sys.stderr)
            return EX_ERROR
        print(f"html report -> {args.report_html}", file=status)

    if args.json:
        import json

        # streamed: the encoder writes as it goes instead of joining
        # the whole indented body in memory first
        json.dump(result.to_dict(), sys.stdout, indent=2)
        sys.stdout.write("\n")
        return EX_PARTIAL if result.partial else EX_OK

    name = detector_class(args.detector).name
    print(f"{args.trace}: {result.events_total} events, "
          f"{result.nranks} ranks")
    print(f"detector {name!r}: {result.events_per_sec:,.0f} events/s "
          f"in {result.wall_seconds:.2f}s")
    if result.salvage and (result.salvage["quarantined_chunks"]
                           or result.salvage["truncated"]):
        s = result.salvage
        print(f"  salvage: {len(s['quarantined_chunks'])} chunk(s) "
              f"quarantined, {s['events_lost']} event(s) lost"
              + (", file truncated" if s["truncated"] else ""))
    ck = result.checkpoint
    if ck:
        cadence = ("amortized" if ck["every"] is None
                   else f"every {ck['every']} chunk(s)")
        print(f"  checkpoints: {ck['written']} written -> {ck['dir']} "
              f"({cadence})")
        for rec in ck["resumed"]:
            print(f"  resumed lane {rec['lane']} from checkpoint "
                  f"#{rec['from_seq']}: {rec['events_skipped']} event(s) "
                  "skipped")
        for name in ck["quarantined"]:
            print(f"  quarantined corrupt checkpoint: {name}")
    print(f"races: {result.races}")
    for verdict in result.verdicts[:5]:
        stored, new = verdict["stored"], verdict["new"]
        print(f"  rank {verdict['rank']} win {verdict['window']}: "
              f"{new['type']} {new['file']}:{new['line']} vs "
              f"{stored['type']} {stored['file']}:{stored['line']}")
    if result.races > 5:
        print(f"  ... and {result.races - 5} more")
    if result.partial:
        frac = result.analyzed_fraction
        pct = f"{frac:.1%} of" if frac is not None else "part of"
        print(f"PARTIAL: {pct} the trace analyzed before the "
              f"{ck['stopped'] or 'resource'} guard stopped the run; "
              f"resume with: repro analyze {args.trace} --resume {ck['dir']}")
        return EX_PARTIAL
    return EX_OK


def _explain(args) -> int:
    from .core.forensics import render_explain_all
    from .detectors.base import Detector
    from .mpi.errors import TraceFormatError
    from .pipeline import analyze_trace

    if args.context < 1:
        print("repro explain: --context must be positive", file=sys.stderr)
        return EX_ERROR
    # the bundle is captured at detection time, so the context width is
    # set for this analysis only and restored for whatever runs next in
    # this process
    default_context = Detector.FORENSICS_CONTEXT
    Detector.FORENSICS_CONTEXT = args.context
    try:
        result = analyze_trace(args.trace, detector=args.detector,
                               salvage=args.salvage)
    except (TraceFormatError, OSError, ValueError) as exc:
        print(f"repro explain: {exc}", file=sys.stderr)
        return EX_ERROR
    finally:
        Detector.FORENSICS_CONTEXT = default_context

    if args.json:
        import json

        print(json.dumps({"trace": args.trace,
                          "detector": result.detector,
                          "races": result.races,
                          "forensics": result.forensics}, indent=2))
    elif not result.races:
        print(f"{args.trace}: no races detected "
              f"(detector {result.detector!r}) — nothing to explain.")
    elif not result.forensics:
        print(f"{args.trace}: {result.races} race(s) detected, but no "
              f"forensics were captured — is REPRO_OBS=off?")
        for verdict in result.verdicts:
            stored, new = verdict["stored"], verdict["new"]
            print(f"  rank {verdict['rank']} win {verdict['window']}: "
                  f"{new['type']} {new['file']}:{new['line']} vs "
                  f"{stored['type']} {stored['file']}:{stored['line']}")
    else:
        print(render_explain_all(result.forensics))
    if args.html:
        from .obs.htmlreport import render_html_report

        _atomic_write_text(args.html, render_html_report(
            result.to_dict(),
            title=f"repro race report — {args.trace}"))
        print(f"html report -> {args.html}",
              file=sys.stderr if args.json else sys.stdout)
    return EX_OK


def _scenarios(args) -> int:
    import json

    from . import obs
    from .scenarios import (
        TOOL_NAMES,
        corpus_to_jsonl,
        gate_violations,
        generate_corpus,
        load_corpus,
        score_corpus,
    )

    with obs.scope() as reg:
        if args.scenarios_cmd == "generate":
            corpus = generate_corpus(args.seed, args.count)
            payload = corpus_to_jsonl(corpus)
            if args.out == "-":
                sys.stdout.write(payload)
            else:
                _atomic_write_text(args.out, payload)
                racy = sum(1 for sc in corpus if sc.racy)
                styles = len({sc.epoch_style for sc in corpus})
                shapes = len({sc.access_shape for sc in corpus})
                print(f"{len(corpus)} scenarios (seed {args.seed}): "
                      f"{racy} racy / {len(corpus) - racy} controls, "
                      f"{styles} epoch styles x {shapes} access shapes "
                      f"-> {args.out}")
            status = EX_OK

        elif args.scenarios_cmd == "score":
            tools = (tuple(args.tools.split(",")) if args.tools
                     else TOOL_NAMES)
            unknown = [t for t in tools if t not in TOOL_NAMES]
            if unknown:
                print(f"repro scenarios score: unknown tool(s) "
                      f"{', '.join(unknown)}; valid: "
                      f"{', '.join(TOOL_NAMES)}", file=sys.stderr)
                return EX_ERROR
            try:
                corpus = load_corpus(args.corpus)
            except (OSError, ValueError) as exc:
                print(f"repro scenarios score: {exc}", file=sys.stderr)
                return EX_ERROR
            report = score_corpus(corpus, tools)
            text = json.dumps(report, indent=2) + "\n"
            if args.out:
                _atomic_write_text(args.out, text)
                print(f"scored {len(corpus)} scenarios with "
                      f"{len(tools)} tool(s) -> {args.out}")
            else:
                sys.stdout.write(text)
            status = EX_OK

        else:  # gate
            if (args.corpus is None) == (args.report is None):
                print("repro scenarios gate: give a corpus or --report "
                      "(not both)", file=sys.stderr)
                return EX_ERROR
            try:
                if args.report is not None:
                    with open(args.report) as fh:
                        report = json.load(fh)
                else:
                    report = score_corpus(load_corpus(args.corpus))
            except (OSError, ValueError) as exc:
                print(f"repro scenarios gate: {exc}", file=sys.stderr)
                return EX_ERROR
            violations = gate_violations(
                report, detector=args.detector,
                min_precision=args.min_precision,
                min_recall=args.min_recall,
                include_hybrid=args.include_hybrid,
            )
            scope = "all" if args.include_hybrid else "non-hybrid"
            if violations:
                for v in violations:
                    print(f"GATE: {v}")
                print(f"gate FAILED: {len(violations)} violation(s) "
                      f"({scope} categories, floor "
                      f"P>={args.min_precision} R>={args.min_recall})")
                status = EX_GATE_FAILED
            else:
                what = "category" if args.include_hybrid \
                    else "non-hybrid category"
                print(f"gate passed: {args.detector!r} meets "
                      f"P>={args.min_precision} R>={args.min_recall} on "
                      f"every {what}")
                status = EX_OK

        if args.metrics or args.metrics_json:
            snap = reg.snapshot() if reg.enabled else None
            _emit_metrics(snap, show=args.metrics,
                          json_path=args.metrics_json)
    return status


def _serve(args) -> int:
    from .serve import ServeConfig, serve_forever

    try:
        config = ServeConfig(
            state_dir=args.state, host=args.host, port=args.port,
            workers=args.workers, max_queue=args.max_queue,
            tenant_cap=args.tenant_cap, retries=args.retries,
            deadline_s=args.deadline_s, max_rss_mb=args.max_rss_mb,
            ckpt_every=args.ckpt_every, drain_s=args.drain_s,
            max_body_mb=args.max_body_mb,
            cache_max=args.cache_max if args.cache_max > 0 else None,
            quiet=not args.verbose,
        )
        return serve_forever(config)
    except (OSError, ValueError) as exc:
        print(f"repro serve: {exc}", file=sys.stderr)
        return EX_ERROR


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

    from .serve import (
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

    from .serve import ServerUnavailable, request, resolve_server

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


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
