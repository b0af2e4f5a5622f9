"""``repro record``: run an application and write its trace."""

from __future__ import annotations

import sys
import time

from ..cli import _RECORD_APPS, _add_metrics_args, _emit_metrics
from ..exitcodes import EX_APP_FAILED, EX_ERROR, EX_OK


def _record_arguments(rec) -> None:
    rec.description = ("Run a simulated application with the streaming "
                       "recorder attached (no detector) and write the trace.")
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


def _record(args) -> int:
    from .. import obs
    from ..mpi.errors import MpiSimError
    from ..pipeline import record_app

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


COMMANDS = {"record": (_record_arguments, _record)}
