"""``repro scenarios``: generate, score and gate the labeled corpus."""

from __future__ import annotations

import sys

from ..cli import _add_metrics_args, _atomic_write_text, _emit_metrics
from ..exitcodes import EX_ERROR, EX_GATE_FAILED, EX_OK


def _scenarios_arguments(sc) -> None:
    sc.description = ("Seeded, ground-truth-labeled MPI-RMA scenarios "
                      "(RMARaceBench-style) and the detector scoring "
                      "harness over them.")
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


def _scenarios(args) -> int:
    import json

    from .. import obs
    from ..scenarios import (
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


COMMANDS = {"scenarios": (_scenarios_arguments, _scenarios)}
