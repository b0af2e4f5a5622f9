"""``repro explain``: annotated race forensics for a recorded trace."""

from __future__ import annotations

import sys

from ..cli import _atomic_write_text
from ..detectors import detector_names
from ..exitcodes import EX_ERROR, EX_OK


def _explain_arguments(ex) -> None:
    ex.description = ("Analyze a trace and print, per detected race, the "
                      "racing pair with both source locations, the "
                      "window's epoch/sync state at detection time, and "
                      "the surrounding per-rank event timeline.")
    ex.add_argument("trace", help="trace file written by 'repro record'")
    ex.add_argument("--detector", choices=detector_names(), default="our",
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


def _explain(args) -> int:
    from ..core.forensics import render_explain_all
    from ..detectors.base import Detector
    from ..mpi.errors import TraceFormatError
    from ..pipeline import analyze_trace

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
        from ..obs.htmlreport import render_html_report

        _atomic_write_text(args.html, render_html_report(
            result.to_dict(),
            title=f"repro race report — {args.trace}"))
        print(f"html report -> {args.html}",
              file=sys.stderr if args.json else sys.stdout)
    return EX_OK


COMMANDS = {"explain": (_explain_arguments, _explain)}
