"""Compare two sets of benchmark results: the parent-vs-change A/B, or
two sets of one commit (which must agree).

    python3 benchmarks/e2e/compare.py set_a.json set_b.json
    python3 benchmarks/e2e/compare.py runs_a/ runs_b/

A set is one result written by ``run.py`` (the combined result of a run
over every workload, or one workload's) or a directory of them — for
instance ten runs with ten seeds.  For every (end-to-end metric,
workload) pair both sets carry, one line shows each side's value (the
median of its runs' reported values), its spread, the change against
the metric's bound, and a verdict:

* ``unresolved`` — a side's spread is wider than the bound, unless both
  sets hold three runs or more and every run of B reads better than
  every run of A.  With three runs or more the spread is the run-to-run
  one (interquartile distance of the runs'
  values over their median); with fewer it is the widest within-run
  interquartile share of the samples, which is conservative;
* ``regressed`` — B is worse than A by more than the bound;
* ``ok`` — otherwise.

End-to-end bounds come from ``BENCHMARK.json``, and ``error_rate``
(failed over attempted) may not rise at all.  The wall-time rates and
latencies of the full result (``events_per_s``, ``ops_per_s``, serve's
cold/resume/cached with their p90, the analyze, app and scoring walls)
and the per-layer metrics are printed for information, without a
verdict: their run-to-run spread on the reference VM is wider than a
10% bound (README).  Exit status 0 only when every verdict is ``ok``.
"""

from __future__ import annotations

import argparse
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional

from common import ROOT, SCHEMA, iqr_share, load_json


def load_set(path) -> Dict[str, List[dict]]:
    """workload -> its runs, from one result file or a directory of them."""
    path = Path(path)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs: Dict[str, List[dict]] = {}
    for f in files:
        doc = load_json(f)
        if doc is None or doc.get("schema") != SCHEMA:
            continue
        per = doc["workloads"] if "workloads" in doc else {
            doc["workload"]: doc}
        for workload, result in per.items():
            runs.setdefault(workload, []).append(result)
    return runs


def side(runs: List[dict], section: str, name: str,
         key: str = "value") -> Optional[dict]:
    """One set's value, spread and per-run values for one metric."""
    stats = [r[section][name] for r in runs
             if name in r.get(section, {}) and key in r[section][name]]
    if not stats:
        return None
    vals = [s[key] for s in stats]
    med = statistics.median(vals)
    if len(vals) >= 3:
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = abs(q3 - q1) / abs(med) if med else 0.0
    else:
        spread = max(iqr_share(s) for s in stats)
    return {"value": med, "spread": spread, "runs": vals}


def _change(a: dict, b: dict) -> float:
    return (b["value"] - a["value"]) / a["value"] if a["value"] else 0.0


def judge(a: dict, b: dict, better: str, bound: float) -> tuple:
    """(signed change of B against A, verdict)."""
    change = _change(a, b)
    worse = change if better == "lower" else -change
    b_wins = min(len(a["runs"]), len(b["runs"])) >= 3 and (
        max(b["runs"]) < min(a["runs"]) if better == "lower"
        else min(b["runs"]) > max(a["runs"]))
    if max(a["spread"], b["spread"]) > bound and not b_wins:
        return change, "unresolved"
    return change, "regressed" if worse > bound else "ok"


def _fmt(s: dict) -> str:
    return f"{s['value']:.6g} ±{100 * s['spread']:.1f}% n{len(s['runs'])}"


def compare(a: Dict[str, List[dict]], b: Dict[str, List[dict]],
            bench: dict, out=sys.stdout) -> int:
    workloads = [w for w in a if w in b]
    bad = 0
    print(f"{'workload':14s} {'metric':20s} {'A value ±spread n':30s} "
          f"{'B value ±spread n':30s} {'change':>8s} {'bound':>6s} verdict",
          file=out)
    for w in workloads:
        for m in bench["end_to_end"]:
            sa = side(a[w], "end_to_end", m["name"])
            sb = side(b[w], "end_to_end", m["name"])
            if sa is None or sb is None:
                continue
            change, verdict = judge(sa, sb, m["better"], m["bound"])
            bad += verdict != "ok"
            print(f"{w:14s} {m['name']:20s} {_fmt(sa):30s} {_fmt(sb):30s} "
                  f"{100 * change:+7.2f}% {100 * m['bound']:5.0f}% "
                  f"{verdict}", file=out)
    for w in workloads:
        ea, eb = (sum(r["failed"] for r in s[w])
                  / max(1, sum(r["attempted"] for r in s[w]))
                  for s in (a, b))
        verdict = "regressed" if eb > ea else "ok"
        bad += verdict != "ok"
        print(f"{w:14s} {'error_rate':20s} {ea:<30.6g} {eb:<30.6g} "
              f"{'':>8s} {'+0':>6s} {verdict}", file=out)
    rows = sorted({(w, section, k) for w in workloads for r in a[w]
                   for section in ("workload_metrics", "per_layer")
                   for k in r.get(section, {})})
    if rows:
        print("\ninformation only (no bound)", file=out)
    for w, section, k in rows:
        for key in ("value", "p90"):
            sa, sb = side(a[w], section, k, key), side(b[w], section, k, key)
            if sa is None or sb is None:
                continue
            label = k if key == "value" else f"{k} p90"
            print(f"{w:14s} {label:38s} {_fmt(sa):30s} {_fmt(sb):30s} "
                  f"{100 * _change(sa, sb):+8.2f}%", file=out)
    return 1 if bad else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", help="set A (the parent): a result or a directory")
    ap.add_argument("b", help="set B (the change): a result or a directory")
    ap.add_argument("--bench", default=str(ROOT / "BENCHMARK.json"),
                    help="BENCHMARK.json holding the bounds")
    args = ap.parse_args(argv)
    bench = load_json(args.bench)
    sets = [load_set(args.a), load_set(args.b)]
    if bench is None or not all(sets):
        print("cannot read a benchmark result from both sets, or "
              f"{args.bench}", file=sys.stderr)
        return 2
    return compare(sets[0], sets[1], bench)


if __name__ == "__main__":
    sys.exit(main())
