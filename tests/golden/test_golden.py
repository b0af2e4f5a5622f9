"""Every artifact of every analysis path, and the ``repro run`` output
of the quick experiments, matches the golden manifest.

See :mod:`tests.golden.golden` for the fixtures, paths, artifacts and
experiments, and for the command that regenerates ``manifest.json``.
"""

from .golden import collect, load_manifest


def test_artifacts_match_the_golden_manifest(tmp_path):
    want = load_manifest()
    got = collect(tmp_path)
    changed = sorted(k for k in set(want) | set(got)
                     if want.get(k) != got.get(k))
    assert not changed, (
        f"{len(changed)} golden digest(s) differ (regenerate with "
        f"`PYTHONPATH=src python -m tests.golden.golden --regenerate` "
        f"and name each in CHANGES.md): {changed}")
