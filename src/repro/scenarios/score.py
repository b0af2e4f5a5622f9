"""Score every detector against the labeled corpus.

Each scenario is recorded once through the interposition/trace pipeline
(:func:`~repro.scenarios.build.record_scenario`); the recorded trace is
then replayed into a fresh instance of every dynamic detector via the
pipeline's shared event dispatch (:func:`repro.pipeline.shard.dispatch_event`),
and the scenario is additionally lowered onto the static checker.  The
scenario's ``RACE_LABELS`` act as the oracle: per (tool, category) the
scorer reports precision, recall and abort-location accuracy — the
fraction of correctly-flagged races whose reported *new* access is the
labeled abort site, i.e. where the tool's ``MPI_Abort`` would fire.

When a tool disagrees with the oracle, the disagreement is classified
against the known defect classes of the differential harness
(``tests/property/test_differential.py``), extended with the classes the
richer corpus can reach; anything unclassified is a
``genuine-regression`` — the signal the regression gate exists for.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from .. import obs
from ..detectors import DETECTORS, detector_class
from ..pipeline.shard import dispatch_event
from ..staticcheck import check_program
from .build import record_scenario
from .generate import CORPUS_SCHEMA
from .model import Scenario
from .staticlower import lower_scenario

__all__ = [
    "TOOL_NAMES",
    "classify_disagreement",
    "gate_violations",
    "known_legacy_false_positive",
    "score_corpus",
]

#: the paper's tool first, then the comparison zoo, then the static pass
TOOL_NAMES = tuple(d.tool for d in DETECTORS) + ("staticcheck",)

#: location pairs a tool reported: (stored "file:line", new "file:line")
_Pairs = List[Tuple[str, str]]


def _dynamic_verdict(sc: Scenario, trace, make) -> Tuple[bool, _Pairs]:
    detector = make()
    for event in trace.events:
        dispatch_event(detector, event, sc.nranks)
    detector.finalize()
    pairs = [
        (f"{r.stored.debug.filename}:{r.stored.debug.line}",
         f"{r.new.debug.filename}:{r.new.debug.line}")
        for r in detector.reports
    ]
    return bool(detector.reports), pairs


def _static_verdict(sc: Scenario) -> Tuple[bool, _Pairs]:
    report = check_program(lower_scenario(sc))
    pairs = [
        (f"{sc.file}:{r.first_line}", f"{sc.file}:{r.second_line}")
        for r in report.all_findings()
    ]
    return bool(pairs), pairs


def known_legacy_false_positive(sc: Scenario) -> bool:
    """The §5.2 order-insensitivity class, lifted to scenarios.

    Same predicate as the differential harness's
    ``known_legacy_false_positive`` over two-op microbenchmarks: a safe
    scenario whose first site is a local access and whose second is a
    one-sided operation by the same caller (the ``ord`` controls are
    constructed to overlap with at least one write).
    """
    if sc.racy:
        return False
    op0, op1 = sc.ops
    return (
        op0.caller == op1.caller
        and all(not a.is_onesided for a in op0.actions)
        and any(a.is_onesided for a in op1.actions)
    )


def classify_disagreement(sc: Scenario, tool: str, kind: str) -> str:
    """Name the defect class of one (scenario, tool, fp|fn) disagreement.

    Classes extend the PR-3 differential taxonomy; an unknown
    combination is a ``genuine-regression`` and should fail the gate.
    """
    if tool == "rma_analyzer":
        if kind == "fp" and known_legacy_false_positive(sc):
            return "legacy-order-insensitive-fp"
        if kind == "fp" and sc.variant == "excl":
            return "legacy-no-exclusive-lock-model"
        if kind == "fn" and sc.access_shape in ("strided", "overlapping"):
            return "legacy-lower-bound-search-fn"
    elif tool == "park_mirror":
        if kind == "fn" and (sc.race_kind == "local"
                             or sc.access_shape == "hybrid"):
            return "park-window-side-only-fn"
        if kind == "fp" and sc.variant == "excl":
            return "park-no-exclusive-lock-model"
        if kind == "fp" and sc.variant == "atomic":
            return "park-no-atomicity-model"
    elif tool == "staticcheck":
        if kind == "fn" and sc.race_kind == "remote":
            return "static-origin-side-only-fn"
        if kind == "fp" and sc.variant in ("atomic", "excl"):
            return "static-overapprox-cross-process"
    return "genuine-regression"


class _Tally:
    __slots__ = ("tp", "fp", "fn", "tn", "abort_hits")

    def __init__(self) -> None:
        self.tp = self.fp = self.fn = self.tn = self.abort_hits = 0

    def to_dict(self) -> dict:
        tp, fp, fn = self.tp, self.fp, self.fn
        return {
            "tp": tp, "fp": fp, "fn": fn, "tn": self.tn,
            "precision": tp / (tp + fp) if tp + fp else 1.0,
            "recall": tp / (tp + fn) if tp + fn else 1.0,
            "abort_accuracy": self.abort_hits / tp if tp else None,
        }


def score_corpus(
    scenarios: Sequence[Scenario],
    tools: Iterable[str] = TOOL_NAMES,
) -> dict:
    """The machine-readable ``repro-scenarios-v1`` score report."""
    tools = tuple(tools)
    overall: Dict[str, _Tally] = {t: _Tally() for t in tools}
    percat: Dict[str, Dict[str, _Tally]] = {t: {} for t in tools}
    disagreements: List[dict] = []
    seeds = sorted({sc.seed for sc in scenarios})
    racy = sum(1 for sc in scenarios if sc.racy)
    makers = {t: detector_class(t, by="tool")
              for t in tools if t != "staticcheck"}

    for sc in scenarios:
        trace = record_scenario(sc)
        for tool in tools:
            if tool == "staticcheck":
                verdict, pairs = _static_verdict(sc)
            else:
                verdict, pairs = _dynamic_verdict(sc, trace, makers[tool])
            if verdict and sc.racy:
                outcome = "tp"
            elif verdict:
                outcome = "fp"
            elif sc.racy:
                outcome = "fn"
            else:
                outcome = "tn"
            obs.counter("scenarios.verdict", detector=tool,
                        outcome=outcome).add(1)
            for tally in (overall[tool],
                          percat[tool].setdefault(sc.category, _Tally())):
                setattr(tally, outcome, getattr(tally, outcome) + 1)
                if outcome == "tp" and any(
                    new == sc.labels.abort_location for _, new in pairs
                ):
                    tally.abort_hits += 1
            if outcome in ("fp", "fn"):
                disagreements.append({
                    "scenario": sc.name,
                    "category": sc.category,
                    "variant": sc.variant,
                    "tool": tool,
                    "kind": outcome,
                    "class": classify_disagreement(sc, tool, outcome),
                })

    return {
        "schema": CORPUS_SCHEMA,
        "scenarios": len(scenarios),
        "racy": racy,
        "controls": len(scenarios) - racy,
        "seeds": seeds,
        "tools": {
            t: {
                "overall": overall[t].to_dict(),
                "categories": {
                    cat: tally.to_dict()
                    for cat, tally in sorted(percat[t].items())
                },
            }
            for t in tools
        },
        "disagreements": disagreements,
    }


def gate_violations(
    report: dict,
    *,
    detector: str = "our",
    min_precision: float = 1.0,
    min_recall: float = 1.0,
    include_hybrid: bool = False,
) -> List[str]:
    """Gate check: per-category precision/recall floor for one tool.

    Hybrid categories are excluded by default — the paper's Table-3
    claim (0 FP / 0 FN) is stated for the non-hybrid microbenchmark
    families; pass ``include_hybrid=True`` to gate everything.  Also
    flags every ``genuine-regression`` disagreement of ``detector``.
    """
    tool = report.get("tools", {}).get(detector)
    if tool is None:
        return [f"no scores for detector {detector!r} in report"]
    out: List[str] = []
    for cat, metrics in tool["categories"].items():
        shape = cat.split("/")[1] if cat.count("/") == 2 else ""
        if shape == "hybrid" and not include_hybrid:
            continue
        if metrics["precision"] < min_precision:
            out.append(f"{detector} precision {metrics['precision']:.3f} "
                       f"< {min_precision} on {cat}")
        if metrics["recall"] < min_recall:
            out.append(f"{detector} recall {metrics['recall']:.3f} "
                       f"< {min_recall} on {cat}")
    for d in report.get("disagreements", ()):
        if d["tool"] == detector and d["class"] == "genuine-regression":
            out.append(f"{detector} genuine regression ({d['kind']}) "
                       f"on {d['scenario']}")
    return out
