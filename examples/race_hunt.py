#!/usr/bin/env python
"""Race hunt across a seeded, ground-truth-labeled scenario corpus.

The paper validates its detector on a fixed microbenchmark suite; this
example drives the :mod:`repro.scenarios` generator instead — an
unbounded labeled corpus over epoch style x access shape x race kind —
and hunts with the full detector zoo:

1. compose a deterministic corpus (same ``SEED`` => same scenarios,
   byte for byte);
2. pick one racy scenario and run it live under the paper's detector:
   the report names exactly the labeled racing pair, and the ``new``
   access is the labeled abort location (where ``MPI_Abort`` fires);
3. score every detector over the whole corpus and print the
   precision/recall scoreboard — the known blind spots of the
   comparison tools fall out as classified disagreements, not
   mystery regressions.

Usage::

    python examples/race_hunt.py [seed] [count]
"""

import sys
from collections import Counter

from repro.core import FlatDetector
from repro.scenarios import (
    TOOL_NAMES,
    generate_corpus,
    run_scenario,
    score_corpus,
)

SEED = int(sys.argv[1]) if len(sys.argv) > 1 else 7
COUNT = int(sys.argv[2]) if len(sys.argv) > 2 else 60


def hunt_one(scenario) -> None:
    """Run one labeled scenario live and compare report vs labels."""
    print(f"$ mpiexec -n {scenario.nranks} ./{scenario.file}"
          f"   # {scenario.labels.description}\n")
    detector = FlatDetector()
    flagged, _ = run_scenario(scenario, detector)
    print(f"[{detector.name}] {'error' if flagged else 'clean'}")
    for report in detector.reports[:1]:
        print(f"    {report.message}")
    print(f"labels: RACE_KIND={scenario.labels.race_kind}"
          f" RACE_PAIR={' vs '.join(scenario.labels.race_pair)}")
    print(f"        abort expected at {scenario.labels.abort_location}\n")


def main() -> None:
    corpus = generate_corpus(SEED, COUNT)
    racy = sum(1 for sc in corpus if sc.racy)
    print(f"corpus: {len(corpus)} scenarios (seed {SEED}), "
          f"{racy} racy / {len(corpus) - racy} known-negative controls\n")

    hunt_one(next(sc for sc in corpus if sc.racy))

    report = score_corpus(corpus)
    print(f"{'tool':<14} {'precision':>9} {'recall':>7} {'abort-acc':>9}")
    for tool in TOOL_NAMES:
        o = report["tools"][tool]["overall"]
        acc = o["abort_accuracy"]
        print(f"{tool:<14} {o['precision']:>9.3f} {o['recall']:>7.3f} "
              f"{acc if acc is None else format(acc, '>9.3f')}")

    classes = Counter((d["tool"], d["class"])
                      for d in report["disagreements"])
    if classes:
        print("\nevery disagreement lands in a known defect class:")
        for (tool, cls), n in sorted(classes.items()):
            print(f"  {tool:<14} {cls:<32} x{n}")
    genuine = [d for d in report["disagreements"]
               if d["class"] == "genuine-regression"]
    assert not genuine, genuine
    print("\n0 genuine regressions — the gate would pass.")


if __name__ == "__main__":
    main()
