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

Regenerate after an intended change — it rewrites the manifest and
prints every digest that changed, was added or went away; name each
in CHANGES.md with the reason::

    PYTHONPATH=src python -m tests.golden.golden --regenerate
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

#: keys whose values are wall-clock readings
_WALL_KEYS = ("wall_seconds", "events_per_sec", "submitted_at", "updated_at")

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
                exports: bool = True, chrome: bool = True) -> Artifacts:
        """One ``repro analyze --json`` run and what it writes."""
        out = self.root / tag
        out.mkdir(parents=True)
        argv = ["analyze", str(trace), "--json", *args]
        if exports:
            argv += ["--report-html", str(out / "report.html"),
                     "--metrics-json", str(out / "obs.json")]
            if chrome:
                argv += ["--trace-out", str(out / "chrome.json")]
        rc, stdout = _cli(argv, env or {})
        body = json.loads(stdout)
        arts = {"exit": str(rc), "json": _json_text(body),
                "forensics": _json_text(body["forensics"]),
                "timeline": _json_text(body["timeline"])}
        if exports:
            if chrome:
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
    """The salvage paths over the chunk-damaged fixture.

    No ``--trace-out``: the Chrome export re-reads the trace strictly.
    """
    run.add(fixture, "salvage", {
        **run.analyze(trace, f"{fixture}-salvage", "--salvage",
                      chrome=False),
        **run.explain(trace, "--salvage")})


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
    return dict(sorted(run.digests.items()))


def load_manifest() -> Dict[str, str]:
    return json.loads(MANIFEST.read_text())


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv != ["--regenerate"]:
        print("usage: python -m tests.golden.golden --regenerate",
              file=sys.stderr)
        return 2
    old = load_manifest() if MANIFEST.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        new = collect(Path(tmp))
    for key in sorted(set(old) | set(new)):
        if key not in new:
            print(f"removed  {key}")
        elif key not in old:
            print(f"added    {key}  {new[key][:16]}")
        elif old[key] != new[key]:
            print(f"changed  {key}  {old[key][:16]} -> {new[key][:16]}")
    MANIFEST.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
    print(f"{len(new)} digests -> {MANIFEST}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
