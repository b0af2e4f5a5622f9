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
from typing import List, Optional

from . import __version__
from .detectors import detector_class, detector_names
from .exitcodes import EX_DIVERGED, EX_ERROR, EX_OK, EX_PARTIAL

__all__ = ["main", "build_parser"]

#: CLI names of the experiments / recordable apps, kept in sync with
#: repro.experiments and repro.pipeline by tests — importing those here
#: would drag the simulator, the app layer and numpy into every CLI
#: start, ``repro analyze`` and ``repro serve`` included
_EXPERIMENT_IDS = ("table1", "fig3", "fig5", "fig8", "table2", "table3",
                   "fig9", "fig10", "fig11", "fig12", "table4", "static",
                   "extensions")
_RECORD_APPS = ("cfd", "histogram", "minivite")


#: subcommand -> (its one-line help, the :mod:`repro.commands` module
#: with its arguments and handler; ``None`` for ``analyze``, kept here)
COMMANDS = {
    "list": ("list available experiments", "experiments"),
    "run": ("run one or more experiments", "experiments"),
    "all": ("run every experiment in paper order", "experiments"),
    "suite": ("microbenchmark suite summary", "experiments"),
    "record": ("run an application and record its trace", "record"),
    "analyze": ("post-mortem race analysis of a recorded trace", None),
    "explain": ("annotated race forensics for a recorded trace", "explain"),
    "scenarios": ("labeled scenario corpus: generate / score / gate",
                  "scenarios"),
    "serve": ("run the crash-safe analysis daemon", "serve"),
    "submit": ("submit a trace to a running daemon", "client"),
    "jobs": ("inspect a running daemon's job table", "client"),
}


def _command(name: str):
    """``(add_arguments, handler)`` of one subcommand."""
    module = COMMANDS[name][1]
    if module is None:
        return _analyze_arguments, _analyze
    from importlib import import_module

    return import_module(f"{__package__}.commands.{module}").COMMANDS[name]


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The ``repro`` parser.  Every subcommand is listed with its help;
    given ``command``, only that one gets its arguments (and its module
    is imported), which is all a command line naming it parses."""
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
    for name, (summary, _module) in COMMANDS.items():
        cmd = sub.add_parser(name, help=summary)
        if command is None or command == name:
            _command(name)[0](cmd)
    return parser


def _analyze_arguments(an) -> None:
    an.description = ("Stream a recorded repro-trace-v2 trace through a "
                      "detector, in this process.")
    an.add_argument("trace", help="trace file written by 'repro record'")
    an.add_argument("--detector", choices=detector_names(), default="our",
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
    argv = sys.argv[1:] if argv is None else list(argv)
    # the first word that is not an option names the subcommand (the
    # top-level options take no value)
    named = next((w for w in argv if not w.startswith("-")), None)
    args = build_parser(named if named in COMMANDS else None).parse_args(argv)
    return _command(args.command)[1](args)


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


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
