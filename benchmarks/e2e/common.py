"""Shared plumbing of the end-to-end benchmark: paths, environment,
workload sizes, oracle digests and sample summaries.

Nothing here imports ``repro``: the parent process of a benchmark run
must be able to fail cleanly (no result line) when the source tree is
missing, and ``compare.py`` runs without it.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
INPUTS = HERE / ".inputs"
RESULTS = HERE / ".results"
WORK = HERE / ".work"

SCHEMA = "repro-bench-e2e-v1"
WORKLOADS = ("minivite-race", "cfd-clean", "serve-grow", "live-sim")

#: discarded runs before timing starts (page cache, .pyc, allocator)
WARMUP = 2
#: a run always times at least this many operations, even past --seconds
MIN_REPS = 3
#: kill a single child operation that runs longer than this
OP_TIMEOUT_S = 150.0
#: the default seed (the held-out seed a claimed gain must also hold on is 7)
DEFAULT_SEED = 12345


@dataclass(frozen=True)
class Sizes:
    """Input sizes of one benchmark mode (full or ``--quick``)."""

    analyze_vertices: int
    cfd_iterations: int
    serve_vertices: int
    serve_rounds: int
    serve_cached: int
    live_vertices: int
    live_cfd_iterations: int
    live_scenarios: int
    warmup: int
    min_reps: int
    setup_samples: int


FULL = Sizes(
    analyze_vertices=8192, cfd_iterations=80,
    serve_vertices=4096, serve_rounds=12, serve_cached=10,
    live_vertices=2048, live_cfd_iterations=20, live_scenarios=2000,
    warmup=WARMUP, min_reps=MIN_REPS, setup_samples=7,
)
QUICK = Sizes(
    analyze_vertices=512, cfd_iterations=8,
    serve_vertices=256, serve_rounds=2, serve_cached=2,
    live_vertices=256, live_cfd_iterations=4, live_scenarios=100,
    warmup=0, min_reps=1, setup_samples=1,
)

NRANKS = 4


def sizes(quick: bool) -> Sizes:
    return QUICK if quick else FULL


def require_source() -> None:
    """Exit non-zero, printing no result, when the program is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"e2e benchmark: no program source at {SRC}/repro; "
              "run from a full checkout", file=sys.stderr)
        raise SystemExit(2)


def scrubbed_env() -> Dict[str, str]:
    """The environment every child gets: no ``REPRO_*`` knob, our source."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def scrub_self() -> List[str]:
    """Drop ``REPRO_*`` from this process and import ``repro`` from SRC.

    Returns the names that were set, for the result's config record.
    """
    removed = sorted(k for k in os.environ if k.startswith("REPRO_"))
    for k in removed:
        del os.environ[k]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"e2e benchmark: imported repro from "
                         f"{repro.__file__}, not {SRC}")
    return removed


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "system": platform.system(),
    }


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def verdict_digest(verdicts: list, forensics: list) -> str:
    """sha256 of canonical verdicts plus forensics bundles."""
    blob = json.dumps({"verdicts": verdicts, "forensics": forensics},
                      sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def summary(samples: Sequence[float]) -> dict:
    """Median, quartiles and count of a sample list (p90 from 100 up).

    ``value``, what a run reports, is the median.
    """
    vals = [float(v) for v in samples]
    if not vals:
        raise ValueError("no samples")
    med = statistics.median(vals)
    if len(vals) >= 2:
        q1, _, q3 = statistics.quantiles(vals, n=4)
    else:
        q1 = q3 = vals[0]
    out = {"value": med, "median": med, "q1": q1, "q3": q3,
           "n": len(vals), "samples": vals}
    if len(vals) >= 100:
        out["p90"] = statistics.quantiles(vals, n=10)[8]
    return out


def iqr_share(s: dict) -> float:
    """Interquartile distance as a share of the median."""
    med = s["median"]
    return abs(s["q3"] - s["q1"]) / abs(med) if med else 0.0


class Tally:
    """Operations attempted and failed; every failure is kept, none dropped."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(what)
        return ok

    def invariant(self, ok: bool, what: str) -> None:
        """A whole-run check (pins, gate): failing it fails the run."""
        if not ok:
            self.failed += 1
            self.errors.append(what)


def load_json(path) -> Optional[dict]:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def write_json(path, payload: dict) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    os.replace(tmp, path)
