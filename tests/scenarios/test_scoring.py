"""The scoring harness: full-zoo tallies, disagreement taxonomy, gate.

One fixed 96-scenario corpus (seed 7 — two passes over every epoch
style x access shape x race kind combination) is scored once per module
against all six tools.  The assertions pin the differential contract:

* the paper's detector, the TSan-shadow replica and the model-checking
  replica are exact on the whole corpus (Table-3 behavior);
* every legacy / park / static disagreement lands in a *known* defect
  class — anything classified ``genuine-regression`` is a test failure
  here and a gate failure in CI.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.scenarios import (
    TOOL_NAMES,
    classify_disagreement,
    compose_scenario,
    gate_violations,
    generate_corpus,
    known_legacy_false_positive,
    score_corpus,
)

EXACT_TOOLS = ("our", "must_rma", "mc_cchecker")

#: every defect class a tool is allowed to produce on this corpus
ALLOWED_CLASSES = {
    "rma_analyzer": {"legacy-order-insensitive-fp",
                     "legacy-no-exclusive-lock-model"},
    "park_mirror": {"park-window-side-only-fn",
                    "park-no-exclusive-lock-model",
                    "park-no-atomicity-model"},
    "staticcheck": {"static-origin-side-only-fn",
                    "static-overapprox-cross-process"},
}


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(7, 96)


@pytest.fixture(scope="module")
def report(corpus):
    return score_corpus(corpus)


class TestReportShape:
    def test_header_counts(self, corpus, report):
        assert report["schema"] == "repro-scenarios-v1"
        assert report["scenarios"] == 96
        assert report["racy"] + report["controls"] == 96
        assert report["seeds"] == [7]
        assert set(report["tools"]) == set(TOOL_NAMES)

    def test_every_category_scored_for_every_tool(self, corpus, report):
        cats = {sc.category for sc in corpus}
        for tool in TOOL_NAMES:
            assert set(report["tools"][tool]["categories"]) == cats

    def test_tallies_are_consistent(self, report):
        for tool in TOOL_NAMES:
            o = report["tools"][tool]["overall"]
            assert o["tp"] + o["fp"] + o["fn"] + o["tn"] == 96
            assert 0.0 <= o["precision"] <= 1.0
            assert 0.0 <= o["recall"] <= 1.0


class TestExactTools:
    def test_perfect_precision_recall_and_abort_location(self, report):
        for tool in EXACT_TOOLS:
            o = report["tools"][tool]["overall"]
            assert o["precision"] == 1.0 and o["recall"] == 1.0, tool
            assert o["abort_accuracy"] == 1.0, tool

    def test_perfect_per_category_including_hybrid(self, report):
        for tool in EXACT_TOOLS:
            for cat, m in report["tools"][tool]["categories"].items():
                assert m["fp"] == 0 and m["fn"] == 0, (tool, cat)


class TestDisagreementTaxonomy:
    def test_no_genuine_regressions(self, report):
        bad = [d for d in report["disagreements"]
               if d["class"] == "genuine-regression"]
        assert not bad, bad

    def test_every_class_is_known_for_its_tool(self, report):
        for d in report["disagreements"]:
            assert d["class"] in ALLOWED_CLASSES[d["tool"]], d

    def test_known_blind_spots_are_present(self, report):
        """The corpus actually exercises the documented defects."""
        classes = {(d["tool"], d["class"]) for d in report["disagreements"]}
        assert ("rma_analyzer", "legacy-order-insensitive-fp") in classes
        assert ("park_mirror", "park-window-side-only-fn") in classes
        assert ("staticcheck", "static-origin-side-only-fn") in classes

    def test_park_misses_every_local_race(self, report):
        """Window-side-only mirroring is blind to origin-buffer races."""
        local = {cat: m
                 for cat, m in report["tools"]["park_mirror"]
                 ["categories"].items() if cat.endswith("/local")}
        assert local and all(m["tp"] == 0 for m in local.values())


class TestClassifier:
    """Unit-level checks of :func:`classify_disagreement`."""

    @staticmethod
    def _find(pred, n=400):
        for i in range(n):
            sc = compose_scenario(7, i)
            if pred(sc):
                return sc
        raise AssertionError("no scenario matches the predicate")

    def test_ord_control_is_the_section_5_2_class(self):
        sc = self._find(lambda s: s.variant == "ord")
        assert known_legacy_false_positive(sc)
        assert classify_disagreement(sc, "rma_analyzer", "fp") == (
            "legacy-order-insensitive-fp"
        )

    def test_excl_control_is_the_lock_model_class(self):
        sc = self._find(lambda s: s.variant == "excl")
        assert not known_legacy_false_positive(sc)
        assert classify_disagreement(sc, "rma_analyzer", "fp") == (
            "legacy-no-exclusive-lock-model"
        )
        assert classify_disagreement(sc, "park_mirror", "fp") == (
            "park-no-exclusive-lock-model"
        )

    def test_racy_scenarios_are_never_legacy_fp_material(self):
        sc = self._find(lambda s: s.racy)
        assert not known_legacy_false_positive(sc)

    def test_local_miss_is_parks_blind_spot(self):
        sc = self._find(lambda s: s.race_kind == "local")
        assert classify_disagreement(sc, "park_mirror", "fn") == (
            "park-window-side-only-fn"
        )

    def test_remote_miss_is_static_blind_spot(self):
        sc = self._find(lambda s: s.race_kind == "remote"
                        and s.access_shape != "hybrid")
        assert classify_disagreement(sc, "staticcheck", "fn") == (
            "static-origin-side-only-fn"
        )

    def test_unknown_combination_is_a_genuine_regression(self):
        sc = self._find(lambda s: s.racy and s.access_shape == "adjacent")
        assert classify_disagreement(sc, "must_rma", "fn") == (
            "genuine-regression"
        )
        assert classify_disagreement(sc, "our", "fp") == (
            "genuine-regression"
        )


class TestGate:
    def test_our_detector_passes_the_default_gate(self, report):
        assert gate_violations(report) == []

    def test_our_detector_passes_even_with_hybrid(self, report):
        assert gate_violations(report, include_hybrid=True) == []

    def test_park_mirror_fails_on_non_hybrid_categories(self, report):
        out = gate_violations(report, detector="park_mirror")
        assert out and all("park_mirror" in v for v in out)
        assert any("recall" in v for v in out)

    def test_raised_floor_can_fail_a_good_tool(self, report):
        # rma_analyzer has perfect recall; its order-insensitivity FPs
        # live in the hybrid categories (local-then-RMA ord controls)
        assert gate_violations(report, detector="rma_analyzer",
                               min_recall=1.0, min_precision=0.0,
                               include_hybrid=True) == []
        assert gate_violations(report, detector="rma_analyzer",
                               min_precision=1.0, include_hybrid=True)

    def test_missing_detector_is_reported(self, report):
        (msg,) = gate_violations(report, detector="nope")
        assert "nope" in msg


class TestObsMetrics:
    def test_verdict_counters_emitted(self):
        corpus = generate_corpus(7, 12)
        with obs.scope() as reg:
            score_corpus(corpus, tools=("our",))
            snap = reg.snapshot()
        counters = snap["counters"]
        tp = counters.get(obs.metric_key(
            "scenarios.verdict", {"detector": "our", "outcome": "tp"}), 0)
        tn = counters.get(obs.metric_key(
            "scenarios.verdict", {"detector": "our", "outcome": "tn"}), 0)
        assert tp + tn == 12  # exact tool: every verdict is tp or tn

    def test_generated_counters_emitted(self):
        with obs.scope() as reg:
            corpus = generate_corpus(7, 12)
            snap = reg.snapshot()
        generated = {k: v for k, v in snap["counters"].items()
                     if k.startswith("scenarios.generated")}
        assert sum(generated.values()) == 12
        assert len(generated) == len({sc.category for sc in corpus})

    def test_generated_counts_equal_per_scenario_counting(self):
        """One add per category leaves the registry exactly as one add
        per scenario did, counter order included."""
        with obs.scope() as reg:
            corpus = generate_corpus(7, 60)
            batched = reg.snapshot()
        with obs.scope() as reg:
            for sc in corpus:
                obs.counter("scenarios.generated",
                            category=sc.category).add(1)
            per_scenario = reg.snapshot()
        assert batched == per_scenario
        assert list(batched["counters"]) == list(per_scenario["counters"])
