"""Seeded input generation and the correctness oracle, cached on disk.

Run as a child process by ``run.py`` (never timed)::

    python3 benchmarks/e2e/inputs.py --workload minivite-race --seed 12345

Inputs land in ``benchmarks/e2e/.inputs/<seed>/<workload>/`` with a
``manifest.json`` holding each file's sha256, event count and the
oracle: the sha256 of canonical verdicts plus forensics from a replay
through the object core (``OurDetector``, the readable Algorithm-1
transcription), with the timeline fed exactly as the pipeline feeds it
so forensics context views are comparable.  A manifest whose spec and
file hashes still match is reused.  CFD-Proxy is deterministic, so its
trace is shared by every seed.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from common import (
    INPUTS,
    NRANKS,
    load_json,
    require_source,
    scrub_self,
    sha256_file,
    sizes,
    verdict_digest,
    write_json,
)

#: bump when generation changes, so stale caches are rebuilt
GENERATOR = 1
GROW_FRACTION = 0.10
SERVE_WARM_VERTICES = 512


def input_dir(workload: str, seed: int, quick: bool) -> Path:
    tag = workload + ("-quick" if quick else "")
    if workload == "cfd-clean":
        return INPUTS / "cfd" / tag
    return INPUTS / str(seed) / tag


def spec_of(workload: str, seed: int, quick: bool) -> dict:
    s = sizes(quick)
    spec = {"generator": GENERATOR, "workload": workload, "nranks": NRANKS}
    if workload == "minivite-race":
        spec.update(app="minivite", vertices=s.analyze_vertices,
                    inject_race=True, graph_seed=seed)
    elif workload == "cfd-clean":
        spec.update(app="cfd", iterations=s.cfd_iterations)
    elif workload == "serve-grow":
        # warm-up rounds run smaller traces of the same program (same
        # source sites, so the daemon's intern tables warm up too)
        spec.update(app="minivite", vertices=s.serve_vertices,
                    inject_race=True, rounds=s.serve_rounds,
                    graph_seeds=[seed + i for i in range(s.serve_rounds)],
                    warm_vertices=SERVE_WARM_VERTICES,
                    warm_seeds=[seed + j for j in range(s.warmup)],
                    grow_fraction=GROW_FRACTION)
    elif workload == "live-sim":
        spec.update(minivite_vertices=s.live_vertices, inject_race=True,
                    graph_seed=seed, cfd_iterations=s.live_cfd_iterations,
                    scenarios=s.live_scenarios, corpus_seed=seed)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return spec


# -- program builders (the same public APIs ``repro record`` uses) ------------


def minivite_args(vertices: int, seed: int):
    from repro.apps import (MiniViteConfig, MiniViteResult, default_graph,
                            make_comm_plan, minivite_program)

    config = MiniViteConfig(nvertices=vertices, seed=seed,
                            inject_put_race=True)
    graph = default_graph(config)
    plan = make_comm_plan(graph, NRANKS)
    return minivite_program, (graph, plan, config, MiniViteResult())


def cfd_args(iterations: int):
    from repro.apps import (CfdConfig, CfdResult, cfd_program,
                            default_partitions)

    config = CfdConfig(iterations=iterations)
    parts = default_partitions(NRANKS, config)
    return cfd_program, (parts, config, CfdResult())


# -- recording and the oracle -------------------------------------------------


def record(path: Path, program, args) -> None:
    """Stream one simulated run's trace to ``path`` (repro-trace-v2)."""
    from repro.mpi import World
    from repro.mpi.trace import StreamingTraceLog
    from repro.pipeline import make_trace_writer

    tmp = path.with_name(path.name + ".part")
    with make_trace_writer(tmp, nranks=NRANKS, format="binary") as writer:
        World(NRANKS, [], trace=StreamingTraceLog(writer.write)).run(
            program, *args)
    os.replace(tmp, path)


class Oracle:
    """Object-core replay with the pipeline's timeline feed."""

    def __init__(self, nranks: int) -> None:
        from repro import obs
        from repro.core import OurDetector

        self.nranks = nranks
        self.registry = obs.Registry(enabled=True)
        self.detector = OurDetector()
        self.events = 0

    def feed(self, events) -> None:
        from repro import obs
        from repro.pipeline.shard import dispatch_event

        det, nranks = self.detector, self.nranks
        with obs.scope(self.registry, merge=False):
            tl = self.registry.timeline
            for event in events:
                tl.record_event_fanout(event, nranks)
                dispatch_event(det, event, nranks)
        self.events += len(events)

    def verdict(self) -> dict:
        """Races and digest of everything fed; finalizes, so call it once."""
        from repro import obs
        from repro.pipeline.engine import (canonical_forensics,
                                           canonical_verdicts)

        with obs.scope(self.registry, merge=False):
            self.detector.finalize()
        reports = self.detector.reports
        return {"races": len(canonical_verdicts(reports)),
                "digest": verdict_digest(canonical_verdicts(reports),
                                         canonical_forensics(reports)),
                "events": self.events}


def _file_entry(path: Path, events: int) -> dict:
    return {"path": str(path.relative_to(INPUTS)),
            "bytes": path.stat().st_size, "sha256": sha256_file(path),
            "events": events}


def trace_oracle(path: Path) -> dict:
    from repro.mpi.trace_io import load_trace

    loaded = load_trace(path)
    oracle = Oracle(loaded.nranks)
    oracle.feed(loaded.log.events)
    return oracle.verdict()


def _gen_analyze(d: Path, spec: dict) -> dict:
    from repro.pipeline import make_trace_writer

    trace = d / "trace.trace"
    if spec["app"] == "minivite":
        record(trace, *minivite_args(spec["vertices"], spec["graph_seed"]))
    else:
        record(trace, *cfd_args(spec["iterations"]))
    empty = d / "empty.trace"
    with make_trace_writer(empty, nranks=NRANKS, format="binary"):
        pass
    oracle = trace_oracle(trace)
    return {"files": {"trace": _file_entry(trace, oracle["events"]),
                      "empty": _file_entry(empty, 0)},
            "oracle": {"trace": oracle}}


def _gen_serve_round(d: Path, key: str, vertices: int, gseed: int,
                     grow_fraction: float) -> tuple:
    """One serve round: a distinct trace and its 10%-grown copy.

    The grown copy appends the trace's own first ``int(n * 0.1)``
    decoded events through ``BinaryTraceWriter.open_append`` — exactly
    what ``repro.faultinject.extend_trace`` writes, without decoding the
    file a second time.
    """
    import shutil

    from repro.mpi.trace_io import load_trace
    from repro.pipeline.format import BinaryTraceWriter

    trace = d / f"{key}.trace"
    record(trace, *minivite_args(vertices, gseed))
    loaded = load_trace(trace)
    events = loaded.log.events
    extra = events[:max(1, int(len(events) * grow_fraction))]
    grown = d / f"{key}-grown.trace"
    tmp = grown.with_name(grown.name + ".part")
    shutil.copyfile(trace, tmp)
    writer = BinaryTraceWriter.open_append(tmp)
    try:
        for event in extra:
            writer.write(event)
    except BaseException:
        writer.abort()
        raise
    writer.close()
    os.replace(tmp, grown)

    # each trace gets its own replay: nothing carries over a finalize
    cold_oracle = Oracle(loaded.nranks)
    cold_oracle.feed(events)
    grown_oracle = Oracle(loaded.nranks)
    grown_oracle.feed(events + extra)
    cold, grown_v = cold_oracle.verdict(), grown_oracle.verdict()
    return ({key: _file_entry(trace, cold["events"]),
             key + "-grown": _file_entry(grown, grown_v["events"])},
            {key: cold, key + "-grown": grown_v})


def _gen_serve(d: Path, spec: dict) -> dict:
    """Every round's traces, two rounds at a time (one per core)."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    plan = [(f"warm-{j}", spec["warm_vertices"], s)
            for j, s in enumerate(spec["warm_seeds"])]
    plan += [(f"round-{i}", spec["vertices"], s)
             for i, s in enumerate(spec["graph_seeds"])]
    files, oracles = {}, {}
    with ProcessPoolExecutor(
            max_workers=2,
            mp_context=multiprocessing.get_context("spawn")) as pool:
        futures = [pool.submit(_gen_serve_round, d, key, vertices, gseed,
                               spec["grow_fraction"])
                   for key, vertices, gseed in plan]
        for fut in futures:
            f, o = fut.result()
            files.update(f)
            oracles.update(o)
    return {"files": files, "oracle": oracles}


def _gen_live(spec: dict) -> dict:
    """The live run's oracle: an in-memory recording of the same run.

    The event count is what ``record_app(out=None)`` reports for the
    configuration; the recording is replayed through the oracle.
    """
    from repro.mpi import World

    oracles = {}
    for name, (program, args) in (
            ("minivite", minivite_args(spec["minivite_vertices"],
                                       spec["graph_seed"])),
            ("cfd", cfd_args(spec["cfd_iterations"]))):
        world = World(NRANKS, [], trace=True)
        world.run(program, *args)
        oracle = Oracle(NRANKS)
        oracle.feed(world.trace_log.events)
        oracles[name] = oracle.verdict()
    return {"files": {}, "oracle": oracles}


def _valid(manifest: dict, spec: dict) -> bool:
    if manifest is None or manifest.get("spec") != spec:
        return False
    for entry in manifest.get("files", {}).values():
        path = INPUTS / entry["path"]
        if not path.is_file() or sha256_file(path) != entry["sha256"]:
            return False
    return True


def ensure(workload: str, seed: int, quick: bool) -> dict:
    """Generate (or reuse) one workload's inputs; returns the manifest."""
    d = input_dir(workload, seed, quick)
    spec = spec_of(workload, seed, quick)
    manifest_path = d / "manifest.json"
    manifest = load_json(manifest_path)
    if _valid(manifest, spec):
        return manifest
    d.mkdir(parents=True, exist_ok=True)
    if workload in ("minivite-race", "cfd-clean"):
        body = _gen_analyze(d, spec)
    elif workload == "serve-grow":
        body = _gen_serve(d, spec)
    else:
        body = _gen_live(spec)
    manifest = {"spec": spec, **body}
    write_json(manifest_path, manifest)
    return manifest


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--quick", action="store_true")
    args = ap.parse_args(argv)
    require_source()
    scrub_self()
    ensure(args.workload, args.seed, args.quick)
    print(input_dir(args.workload, args.seed, args.quick) / "manifest.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
