"""End-to-end benchmark of analyze, serve and the live simulator.

One workload (what ``BENCHMARK.json``'s command runs)::

    python3 benchmarks/e2e/run.py --workload minivite-race --seed 12345 \\
        --seconds 15 --trace 0

prints each metric by name and unit, and as its last line one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` — the
end-to-end metrics with ``--trace 0``, the per-layer metrics (from a
separate, in-process traced run) with ``--trace 1``.  The full result
(quartiles, sample counts, input hashes, configuration) is written to
``--out`` or ``benchmarks/e2e/.results/``.

Every workload::

    python3 benchmarks/e2e/run.py --seed 12345 --out set_a.json [--traced]

runs the four workloads one after another, each in a fresh child
process, and writes one combined result for ``compare.py``.  ``--quick``
uses tiny inputs and one repetition (the smoke test).

Inputs come from ``--seed`` (see ``inputs.py``); every ``REPRO_*``
variable is removed before anything runs, so the program runs in its
default configuration.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

from common import (
    DEFAULT_SEED,
    HERE,
    RESULTS,
    ROOT,
    SCHEMA,
    WORK,
    WORKLOADS,
    Tally,
    load_json,
    machine,
    require_source,
    scrub_self,
    scrubbed_env,
    sizes,
    write_json,
)

BENCHMARK = ROOT / "BENCHMARK.json"


def _bench_spec() -> dict:
    spec = load_json(BENCHMARK)
    if spec is None:
        raise SystemExit(f"e2e benchmark: cannot read {BENCHMARK}")
    return spec


def _pins(workload: str, seed: int, quick: bool, manifest: dict,
          tally: Tally) -> None:
    """Known verdict counts the oracle itself must reproduce."""
    oracle = manifest["oracle"]
    if workload == "minivite-race":
        races = oracle["trace"]["races"]
        tally.invariant(races > 0, "minivite-race oracle found no race")
        if seed == DEFAULT_SEED and not quick:
            tally.invariant(races == 12,
                            f"seed {seed} minivite-race: {races} races, "
                            "pinned 12")
    elif workload == "cfd-clean":
        tally.invariant(oracle["trace"]["races"] == 0,
                        "cfd-clean oracle found races, pinned 0")
    elif workload == "serve-grow":
        tally.invariant(all(o["races"] > 0 for o in oracle.values()),
                        "a serve-grow trace has no race")
    else:
        tally.invariant(oracle["minivite"]["races"] > 0
                        and oracle["cfd"]["races"] == 0,
                        "live-sim oracle: expected races in miniVite only")


def _gen_inputs(workload: str, seed: int, quick: bool) -> dict:
    """Generate inputs in a child process, so this one stays clean."""
    from workloads import run_child

    argv = [sys.executable, str(HERE / "inputs.py"), "--workload", workload,
            "--seed", str(seed)] + (["--quick"] if quick else [])
    out = WORK / "inputs.out"
    _, code, _ = run_child(argv, stdout=out, timeout=600.0)
    if code != 0:
        err = out.with_suffix(".err").read_text()[-2000:]
        raise SystemExit(f"e2e benchmark: input generation failed:\n{err}")
    return load_json(out.read_text().strip())


def run_workload(args) -> int:
    bench = _bench_spec()
    removed = scrub_self()
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    sz = sizes(args.quick)
    try:
        manifest = _gen_inputs(args.workload, args.seed, args.quick)
        tally = Tally()
        _pins(args.workload, args.seed, args.quick, manifest, tally)
        t0 = time.perf_counter()
        if args.trace:
            from traced import run_traced

            body = run_traced(args.workload, manifest, args.seconds, sz,
                              tally, args.seed)
        else:
            import workloads

            if args.workload in ("minivite-race", "cfd-clean"):
                body = workloads.run_analyze(manifest, args.seconds, sz,
                                             tally)
            elif args.workload == "serve-grow":
                body = workloads.run_serve(manifest, args.seconds, sz, tally)
            else:
                body = workloads.run_live(manifest, args.seconds, sz, tally)
        run_s = time.perf_counter() - t0
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    section = "per_layer" if args.trace else "end_to_end"
    measured = (body or {}).get(section, {})
    metrics = {}
    for m in bench[section]:
        if m["name"] not in measured:
            tally.invariant(False, f"metric {m['name']} was not measured")
            continue
        metrics[m["name"]] = {"value": measured[m["name"]]["value"],
                              "unit": m["unit"]}
    correct = tally.failed == 0 and bool(body)
    result = {
        "schema": SCHEMA,
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "quick": args.quick,
        "seconds": args.seconds,
        "run_s": run_s,
        "machine": machine(),
        "config": {"repro_env_removed": removed,
                   "repro_env_in_children": sorted(
                       k for k in scrubbed_env() if k.startswith("REPRO_"))},
        "inputs": {k: {"sha256": v["sha256"], "events": v["events"],
                       "bytes": v["bytes"]}
                   for k, v in manifest["files"].items()},
        "oracle": manifest["oracle"],
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "error_rate": tally.failed / max(tally.attempted, 1),
        "errors": tally.errors,
        **(body or {}),
    }
    out = Path(args.out) if args.out else (
        RESULTS / f"{args.workload}-{args.seed}-trace{args.trace}.json")
    write_json(out, result)
    for name, m in metrics.items():
        s = measured[name]
        print(f"{args.workload:14s} {name:38s} {s['value']:.6g} {m['unit']}"
              f"  [median {s['median']:.6g}, q1 {s['q1']:.6g}, "
              f"q3 {s['q3']:.6g}, n {s['n']}]")
    for name, s in (body or {}).get("workload_metrics", {}).items():
        p90 = f", p90 {s['p90']:.6g}" if "p90" in s else ""
        print(f"{args.workload:14s} {name:38s} {s['value']:.6g} {s['unit']}"
              f"  [median {s['median']:.6g}, q1 {s['q1']:.6g}, "
              f"q3 {s['q3']:.6g}, n {s['n']}{p90}] (no bound)")
    if (body or {}).get("resume_missed"):
        print(f"{args.workload:14s} grown resubmissions analysed from "
              f"scratch (no prefix-resume): {body['resume_missed']}")
    for err in tally.errors:
        print(f"{args.workload:14s} FAILED {err}")
    print(f"{args.workload:14s} full result: {out}")
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}),
          flush=True)
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload, each in its own fresh child process."""
    results, ok = {}, True
    RESULTS.mkdir(parents=True, exist_ok=True)
    for workload in WORKLOADS:
        part = RESULTS / f"part-{workload}.json"
        part.unlink(missing_ok=True)
        argv = [sys.executable, str(Path(__file__).resolve()),
                "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--out", str(part)] + (["--quick"] if args.quick else [])
        proc = subprocess.run(argv, env=scrubbed_env(), cwd=str(ROOT),
                              stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        result = load_json(part)
        if proc.returncode != 0 or result is None:
            ok = False
            print(f"{workload}: exit {proc.returncode}", flush=True)
        if result is not None:
            results[workload] = result
            part.unlink()
    combined = {
        "schema": SCHEMA,
        "seed": args.seed,
        "trace": args.trace,
        "quick": args.quick,
        "seconds": args.seconds,
        "machine": machine(),
        "benchmark": _bench_spec(),
        "correct": ok and all(r["correct"] for r in results.values()),
        "workloads": results,
    }
    out = Path(args.out) if args.out else (
        RESULTS / f"all-{args.seed}-trace{args.trace}.json")
    write_json(out, combined)
    print(f"wrote {out}")
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="End-to-end benchmark: repro analyze, serve and the "
                    "live simulator, with a traced per-layer split.")
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="run one workload (default: all, each in a child)")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measurement time per run (default: "
                         "BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: per-layer metrics from a traced run")
    ap.add_argument("--traced", action="store_true",
                    help="same as --trace 1")
    ap.add_argument("--quick", action="store_true",
                    help="tiny inputs, one repetition (smoke test)")
    ap.add_argument("--out", help="where to write the full JSON result")
    args = ap.parse_args(argv)
    require_source()
    if args.traced:
        args.trace = 1
    if args.seconds is None:
        args.seconds = float(_bench_spec()["run_seconds"])
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
