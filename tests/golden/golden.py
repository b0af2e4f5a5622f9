"""The golden manifest: one sha256 digest per (fixture, path, artifact).

Every analysis path must turn a valid trace into the same artifacts,
and a change that moves every path together (new forensics, another
``repro explain`` layout, an export format) is invisible to the parity
matrix, which compares paths with each other.  This module runs each
path on each fixture through the real CLI (in this process) and the
in-process daemon, normalizes what legitimately varies — wall-clock
fields, ``*_ns`` span timings and the scratch directory's path — and
digests the rest.  ``manifest.json`` holds the committed digests and
``test_golden.py`` recomputes them.

Fixtures (recorded on 4 ranks):

* ``mv`` — the parity matrix's miniVite trace (size 256, race
  injected; 12 races, 2 chunks);
* ``cfd`` — the parity matrix's CFD-Proxy trace (size 4, race-free);
* ``mv200`` — ``mv`` re-chunked at 200 events per chunk (12 chunks);
* ``mv200-damaged`` — ``mv200`` with chunk 6's payload byte-flipped
  (``flip_bytes``), read only by the salvage paths.

Paths: ``plain``, ``salvage``, ``rma`` (``--detector rma``),
``ckpt-resume`` (checkpoint every chunk, deadline stop after the first,
then ``--resume``), ``follow``, ``serve-cold`` / ``serve-prefix`` (a
10%-grown copy from ``extend_trace``) / ``serve-cached``,
``timeline-off`` (``REPRO_OBS_TIMELINE=off``) and ``obs-off``
(``REPRO_OBS=off``).

Artifacts: ``exit`` (the exit code), ``json`` (the ``--json`` body),
``forensics`` and ``timeline`` (its sections), ``trace-out``,
``report-html``, ``metrics-json``, and ``explain`` / ``explain-json``
(``repro explain`` text and ``--json``).

The live runtime: :func:`_live_program` fires every interposition hook
on three simulated ranks, run with no detector (``baseline``), under
each detector of :data:`repro.detectors.DETECTORS` (its ``tool`` name)
and under ``our`` aborting on its first race (``our-abort``).  Each run
digests ``outcome``, ``clock`` (every rank's simulated ``now`` and its
per-category breakdown), ``trace`` (the trace log), ``timeline``,
``verdicts`` and ``forensics``, keyed ``live/<run>/<artifact>``.

The paper experiments: ``repro run <ids> --json`` over :data:`RUN_IDS`
(every experiment but fig11, fig12 and table4, which take minutes),
one ``run/<id>/json`` digest per experiment plus ``run/all/exit``.
Their simulated times are deterministic; only the wall-clock fields
are zeroed.

The slow mode digests the other three, :data:`SLOW_RUN_IDS` (about
five minutes on two cores), into its own manifest,
``manifest_slow.json``.  No ``test_*.py`` reads it, so tier-1 does not
run it; CI's ``golden-slow`` job checks it with ``--check --slow``,
which exits 1 and names every digest that differs.

Regenerate after an intended change — it rewrites the manifest and
prints every digest that changed, was added or went away; name each
in CHANGES.md with the reason::

    PYTHONPATH=src python -m tests.golden.golden --regenerate [--slow]
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

MANIFEST = Path(__file__).with_name("manifest.json")
SLOW_MANIFEST = Path(__file__).with_name("manifest_slow.json")

#: keys whose values are wall-clock readings
_WALL_KEYS = ("wall_seconds", "events_per_sec", "submitted_at", "updated_at",
              "seconds", "analysis_seconds")

#: the experiments ``repro run`` digests
RUN_IDS = ("table1", "fig3", "fig5", "fig8", "table2", "table3", "fig9",
           "fig10", "static", "extensions")

#: the experiments the slow mode digests
SLOW_RUN_IDS = ("fig11", "fig12", "table4")

Artifacts = Dict[str, str]


# -- normalization -----------------------------------------------------------


def _zero_wall(obj):
    """``obj`` with every wall-clock and ``*_ns`` value set to 0."""
    if isinstance(obj, dict):
        return {k: 0 if (k in _WALL_KEYS or k.endswith("_ns"))
                else _zero_wall(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_zero_wall(v) for v in obj]
    return obj


def _json_text(obj) -> str:
    return json.dumps(_zero_wall(obj), sort_keys=True, indent=1)


# -- running -----------------------------------------------------------------


@contextlib.contextmanager
def _environ(env: Dict[str, str]) -> Iterator[None]:
    """Run with every ``REPRO_*`` variable unset, then ``env`` applied."""
    saved = dict(os.environ)
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ.update(env)
    try:
        yield
    finally:
        os.environ.clear()
        os.environ.update(saved)


def _cli(argv: List[str], env: Dict[str, str]) -> Tuple[int, str]:
    """``repro <argv>`` in this process under a fresh registry."""
    from repro import obs
    from repro.cli import main
    from repro.obs.registry import Registry

    out = io.StringIO()
    with _environ(env), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        with obs.scope(Registry(), merge=False):
            rc = main(argv)
    return rc, out.getvalue()


class Run:
    """Runs every path over the fixtures under one scratch directory."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self.digests: Dict[str, str] = {}

    def add(self, fixture: str, path: str, artifacts: Artifacts) -> None:
        for name, text in artifacts.items():
            text = text.replace(str(self.root), "<root>")
            self.digests[f"{fixture}/{path}/{name}"] = hashlib.sha256(
                text.encode()).hexdigest()

    def analyze(self, trace: Path, tag: str, *args: str,
                env: Optional[Dict[str, str]] = None,
                exports: bool = True) -> Artifacts:
        """One ``repro analyze --json`` run and what it writes."""
        out = self.root / tag
        out.mkdir(parents=True)
        argv = ["analyze", str(trace), "--json", *args]
        if exports:
            argv += ["--report-html", str(out / "report.html"),
                     "--metrics-json", str(out / "obs.json"),
                     "--trace-out", str(out / "chrome.json")]
        rc, stdout = _cli(argv, env or {})
        body = json.loads(stdout)
        arts = {"exit": str(rc), "json": _json_text(body),
                "forensics": _json_text(body["forensics"]),
                "timeline": _json_text(body["timeline"])}
        if exports:
            arts["trace-out"] = _json_text(
                json.loads((out / "chrome.json").read_text()))
            arts["report-html"] = (out / "report.html").read_text()
            arts["metrics-json"] = _json_text(
                json.loads((out / "obs.json").read_text()))
        return arts

    def explain(self, trace: Path, *args: str,
                env: Optional[Dict[str, str]] = None) -> Artifacts:
        """``repro explain`` text and ``--json`` for one trace."""
        env = env or {}
        rc, text = _cli(["explain", str(trace), *args], env)
        rc_json, stdout = _cli(["explain", str(trace), "--json", *args], env)
        return {"explain": f"exit {rc}\n{text}",
                "explain-json": f"exit {rc_json}\n"
                                + _json_text(json.loads(stdout))}


# -- fixtures ----------------------------------------------------------------


def build_fixtures(root: Path) -> Dict[str, Path]:
    from repro.faultinject import flip_bytes
    from repro.pipeline import BinaryTraceWriter, TraceReader, record_app

    root.mkdir(parents=True, exist_ok=True)
    mv = root / "mv.trace"
    cfd = root / "cfd.trace"
    record_app("minivite", nranks=4, size=256, inject_race=True, out=mv)
    record_app("cfd", nranks=4, size=4, out=cfd)
    mv200 = root / "mv200.trace"
    reader = TraceReader(mv)
    with BinaryTraceWriter(mv200, nranks=reader.nranks,
                           events_per_chunk=200) as writer:
        for event in reader:
            writer.write(event)
    damaged = root / "mv200-damaged.trace"
    shutil.copy(mv200, damaged)
    flip_bytes(damaged, chunk=6)
    return {"mv": mv, "cfd": cfd, "mv200": mv200, "mv200-damaged": damaged}


# -- the paths ---------------------------------------------------------------


def _serve(run: Run, fixture: str, trace: Path) -> None:
    """Cold, prefix-resumed (10%-grown copy) and cached daemon jobs."""
    from repro.faultinject import extend_trace
    from repro.obs.registry import Registry
    from repro.serve import Scheduler

    grown = run.root / f"{fixture}-grown.trace"
    shutil.copy(trace, grown)
    extend_trace(grown, fraction=0.1)
    state = run.root / f"{fixture}-serve"
    # the daemon logs its prefix-resumes to stdout
    with _environ({}), contextlib.redirect_stdout(io.StringIO()):
        sched = Scheduler(str(state), workers=1)
        sched.registry = Registry(enabled=True)
        sched.start()
        try:
            for path, source in (("serve-cold", trace),
                                 ("serve-prefix", grown),
                                 ("serve-cached", trace)):
                jid = sched.submit_bytes(source.read_bytes()).id
                deadline = time.monotonic() + 120
                while sched.get_job(jid)["state"] not in (
                        "done", "failed", "quarantined"):
                    if time.monotonic() > deadline:
                        raise TimeoutError(f"{path}: {sched.get_job(jid)}")
                    time.sleep(0.01)
                job = sched.get_job(jid)
                res = sched.get_result(jid) or {}
                run.add(fixture, path, {
                    "job": _json_text({k: job[k] for k in (
                        "state", "cached", "races", "events",
                        "prefix_chunks", "resumed")}),
                    "json": _json_text(res),
                    "forensics": _json_text(res.get("forensics")),
                    "timeline": _json_text(res.get("timeline")),
                })
        finally:
            sched.drain(timeout=5.0)


def _intact(run: Run, fixture: str, trace: Path) -> None:
    """Every path over one intact fixture."""
    run.add(fixture, "plain", {**run.analyze(trace, f"{fixture}-plain"),
                               **run.explain(trace)})
    run.add(fixture, "salvage", {
        **run.analyze(trace, f"{fixture}-salvage", "--salvage"),
        **run.explain(trace, "--salvage")})
    run.add(fixture, "rma", {
        **run.analyze(trace, f"{fixture}-rma", "--detector", "rma"),
        **run.explain(trace, "--detector", "rma")})
    ck = run.root / f"{fixture}-ckpt"
    stopped = run.analyze(trace, f"{fixture}-ckpt-stop", "--ckpt-dir", str(ck),
                          "--ckpt-every", "1", "--deadline-s", "1e-9",
                          exports=False)
    run.add(fixture, "ckpt-resume", {
        **{f"stopped-{k}": v for k, v in stopped.items()},
        **run.analyze(trace, f"{fixture}-ckpt-resume", "--resume", str(ck))})
    run.add(fixture, "follow", run.analyze(
        trace, f"{fixture}-follow", "--ckpt-dir", str(run.root / f"{fixture}-fck"),
        "--follow"))
    _serve(run, fixture, trace)
    for path, env in (("timeline-off", {"REPRO_OBS_TIMELINE": "off"}),
                      ("obs-off", {"REPRO_OBS": "off"})):
        run.add(fixture, path, {
            **run.analyze(trace, f"{fixture}-{path}", env=env),
            **run.explain(trace, env=env)})


def _damaged(run: Run, fixture: str, trace: Path) -> None:
    """The salvage paths over the chunk-damaged fixture."""
    run.add(fixture, "salvage", {
        **run.analyze(trace, f"{fixture}-salvage", "--salvage"),
        **run.explain(trace, "--salvage")})


def _at(line: int):
    """An explicit access site, so no edit to this file moves a digest."""
    from repro.intervals import DebugInfo

    return DebugInfo("live.c", line)


def _live_program(ctx):
    """Every live interposition hook: two window creations, a lock_all
    epoch with each one-sided op (request completions and both flushes
    included), shared and exclusive per-target locks, barriers, a fence
    epoch and two frees.  In the second lock_all epoch each rank stores
    to the bytes its left neighbour puts into: a race on every rank."""
    r = ctx.rank
    right = (r + 1) % ctx.size
    buf = ctx.alloc("buf", 8, rma_hint=True)
    res = ctx.alloc("res", 8)
    tmp = ctx.stack_alloc("tmp", 4)
    mem = ctx.alloc("mem", 8)
    win = yield ctx.win_allocate("win", 16)
    cwin = yield ctx.win_create("cwin", mem)
    ctx.win_lock_all(win)
    ctx.store(buf, 0, r + 1, count=4, debug=_at(1))
    ctx.put(win, right, 0, buf, 0, 2, debug=_at(2))
    ctx.get(win, right, 4, buf, 4, 2, debug=_at(3))
    ctx.accumulate(win, right, 8, buf, 0, 2, op="sum", debug=_at(4))
    ctx.get_accumulate(win, right, 10, buf, res, 0, 0, 2, op="max",
                       debug=_at(5))
    ctx.wait(ctx.rput(win, right, 12, buf, 6, 1, debug=_at(6)))
    ctx.wait(ctx.rget(win, right, 13, res, 4, 1, debug=_at(7)))
    ctx.win_flush(win, right)
    ctx.load(buf, 0, 2, debug=_at(8))
    ctx.store(tmp, 0, r, debug=_at(9))
    ctx.win_flush_all(win)
    ctx.win_unlock_all(win)
    yield ctx.barrier()
    ctx.win_lock(cwin, right)
    ctx.get(cwin, right, 0, res, 0, 2, debug=_at(10))
    ctx.win_unlock(cwin, right)
    ctx.win_lock(cwin, right, exclusive=True)
    ctx.put(cwin, right, 2, buf, 0, 2, debug=_at(11))
    ctx.win_unlock(cwin, right)
    yield ctx.barrier()
    ctx.win_lock_all(cwin)
    ctx.put(cwin, right, 4, buf, 0, 2, debug=_at(12))
    ctx.store(mem, 4, r, count=2, debug=_at(13))
    ctx.win_unlock_all(cwin)
    yield ctx.win_fence(win)
    ctx.put(win, right, 0, buf, 0, 4, debug=_at(14))
    ctx.load(buf, 0, debug=_at(15))
    yield ctx.win_fence(win)
    yield ctx.win_free(cwin)
    yield ctx.win_free(win)


def _live(run: Run) -> None:
    """:func:`_live_program` on three simulated ranks with no detector,
    under each detector of the registry, and under ``our`` aborting on
    its first race: the simulated clock, the trace log, the timeline and
    the verdicts and forensics of each run."""
    from repro import obs
    from repro.core.report import DataRaceError
    from repro.detectors import DETECTORS
    from repro.mpi import World
    from repro.obs.registry import Registry
    from repro.pipeline.engine import canonical_forensics, canonical_verdicts

    runs = [("baseline", None, {})]
    runs += [(spec.tool, spec.load(), {}) for spec in DETECTORS]
    runs.append(("our-abort", DETECTORS[0].load(), {"abort_on_race": True}))
    for path, cls, kwargs in runs:
        dets = [] if cls is None else [cls(**kwargs)]
        with _environ({}), obs.scope(Registry(), merge=False) as reg:
            world = World(3, dets, trace=True)
            try:
                world.run(_live_program)
                outcome = "completed"
            except DataRaceError:
                outcome = "aborted on a race"
            tl = reg.timeline.snapshot()
        reports = [rep for d in dets for rep in d.reports]
        run.add("live", path, {
            "outcome": outcome,
            "clock": _json_text({"now": world.clock.now,
                                 "breakdown": world.clock.breakdown}),
            "trace": "\n".join(repr(e) for e in world.trace_log),
            "timeline": _json_text(tl),
            "verdicts": _json_text(canonical_verdicts(reports)),
            "forensics": _json_text(canonical_forensics(reports)),
        })


def _experiments(run: Run, ids: Tuple[str, ...] = RUN_IDS) -> None:
    """``repro run --json`` over ``ids``: one digest each."""
    rc, stdout = _cli(["run", *ids, "--json"], {})
    decoder = json.JSONDecoder()
    stdout = stdout.strip()
    pos = 0
    while pos < len(stdout):
        # one indented JSON document per experiment, newline-separated
        result, pos = decoder.raw_decode(stdout, pos)
        pos = len(stdout) - len(stdout[pos:].lstrip())
        run.add("run", result["experiment"], {"json": _json_text(result)})
    run.add("run", "all", {"exit": str(rc)})


#: fixture -> the paths it runs
PATHS: Dict[str, Callable[[Run, str, Path], None]] = {
    "mv": _intact,
    "cfd": _intact,
    "mv200": _intact,
    "mv200-damaged": _damaged,
}


def collect(root: Path) -> Dict[str, str]:
    """Build the fixtures under ``root`` and digest every artifact."""
    traces = build_fixtures(root / "fixtures")
    run = Run(root)
    for fixture, paths in PATHS.items():
        paths(run, fixture, traces[fixture])
    _live(run)
    _experiments(run)
    return dict(sorted(run.digests.items()))


def collect_slow(root: Path) -> Dict[str, str]:
    """Digest ``repro run --json`` over :data:`SLOW_RUN_IDS`."""
    run = Run(root)
    _experiments(run, SLOW_RUN_IDS)
    return dict(sorted(run.digests.items()))


def load_manifest(path: Path = MANIFEST) -> Dict[str, str]:
    return json.loads(path.read_text())


_USAGE = "usage: python -m tests.golden.golden --regenerate|--check [--slow]"


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    slow = argv[1:] == ["--slow"]
    if argv[:1] not in (["--regenerate"], ["--check"]) or (
            argv[1:] and not slow):
        print(_USAGE, file=sys.stderr)
        return 2
    manifest, digest = (SLOW_MANIFEST, collect_slow) if slow else (
        MANIFEST, collect)
    old = load_manifest(manifest) if manifest.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        new = digest(Path(tmp))
    differ = 0
    for key in sorted(set(old) | set(new)):
        if key not in new:
            print(f"removed  {key}")
        elif key not in old:
            print(f"added    {key}  {new[key][:16]}")
        elif old[key] != new[key]:
            print(f"changed  {key}  {old[key][:16]} -> {new[key][:16]}")
        else:
            continue
        differ += 1
    if argv[0] == "--check":
        print(f"{len(new)} digests, {differ} differ from {manifest.name}")
        return 1 if differ else 0
    manifest.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
    print(f"{len(new)} digests -> {manifest}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
