"""The paper's contribution: the new BST insertion algorithm and detector.

* :func:`fragment_accesses` — §4.1 disjointness by fragmentation,
* :func:`merge_accesses` — §4.2 node merging,
* :func:`insert_access` — Algorithm 1 end to end,
* :class:`FlatDetector` — the full on-the-fly detector on the flat
  core (interned records in sorted typed-array blocks): the one every
  entry point runs,
* :class:`OurDetector` — the same detector on the object core, a
  readable transcription of Algorithm 1 kept as the reference oracle
  (the parity tests, the e2e benchmark) and as the base of
  :class:`StridedDetector`,
* :class:`RaceReport` / :class:`DataRaceError` — Fig. 9b style reports.

Exports resolve lazily (:mod:`repro._lazy`): importing the flat core
or the reports never loads the object core's insertion, fragmentation
and merging code or the node-linked AVL tree.
"""

from .._lazy import lazy_exports

#: public name -> defining submodule
_EXPORTS = {
    "OurDetector": ".detector",
    "FlatDetector": ".flatcore",
    "fragment_accesses": ".fragmentation",
    "fragment_pair": ".fragmentation",
    "InsertOutcome": ".insertion",
    "data_race_detection": ".insertion",
    "finish_insertion": ".insertion",
    "get_intersecting_accesses": ".insertion",
    "insert_access": ".insertion",
    "merge_accesses": ".merging",
    "DataRaceError": ".report",
    "RaceReport": ".report",
    "StridedChain": ".strided",
    "StridedDetector": ".strided",
}

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
