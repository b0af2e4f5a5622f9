"""``repro list``, ``run``, ``all`` and ``suite``: the paper experiments."""

from __future__ import annotations

import sys
import time

from ..cli import (
    _EXPERIMENT_IDS,
    _add_metrics_args,
    _emit_metrics,
    _write_chrome,
)
from ..exitcodes import EX_ERROR, EX_OK


def _experiments():
    from ..experiments import EXPERIMENTS

    return EXPERIMENTS


def _no_arguments(parser) -> None:
    pass


def _list(args) -> int:
    for exp_id, fn in _experiments().items():
        doc = (fn.__doc__ or "").strip().splitlines()[0]
        print(f"{exp_id:8s} {doc}")
    return EX_OK


def _run_arguments(run) -> None:
    run.add_argument("experiments", nargs="+", metavar="EXP",
                     help=f"one of: {', '.join(_EXPERIMENT_IDS)}")
    run.add_argument("--json", action="store_true",
                     help="emit machine-readable JSON instead of tables")
    run.add_argument("--trace-out", default=None, metavar="PATH",
                     help="export the run's event timeline as Chrome "
                          "trace-event JSON (chrome://tracing, Perfetto); "
                          "bounded by the REPRO_OBS_TIMELINE ring")
    _add_metrics_args(run)


def _run(args) -> int:
    from .. import obs

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


def _all(args) -> int:
    status = EX_OK
    for exp_id in _experiments():
        status = max(status, _run_one(exp_id))
    return status


def _suite_arguments(suite) -> None:
    suite.add_argument("--names", action="store_true",
                       help="also print every generated code name")


def _suite(args) -> int:
    from ..microbench import generate_suite

    suite = generate_suite()
    races = sum(1 for s in suite if s.racy)
    print(f"{len(suite)} codes: {races} race / {len(suite) - races} safe")
    if args.names:
        for spec in suite:
            print(f"  {spec.name}")
    return EX_OK


def _jsonable(value):
    """Best-effort conversion of experiment payloads to JSON types."""
    import dataclasses

    from .._fields import Fields

    if isinstance(value, Fields):
        return {name: _jsonable(getattr(value, name))
                for name in value._fields}
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


COMMANDS = {
    "list": (_no_arguments, _list),
    "run": (_run_arguments, _run),
    "all": (_no_arguments, _all),
    "suite": (_suite_arguments, _suite),
}
