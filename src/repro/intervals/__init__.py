"""Interval and memory-access algebra shared by every detector.

Public surface:

* :class:`Interval` — half-open byte ranges with exact overlap/adjacency,
* :class:`AccessType`, :class:`DebugInfo`, :class:`MemoryAccess`,
* :func:`combined_type` / :func:`combine_accesses` — paper Table 1,
* :func:`is_race` / :func:`is_race_legacy` — the race predicates,
* :func:`fig3_matrix` — the paper's Figure 3 regenerated from semantics.

Exports resolve lazily (:mod:`repro._lazy`): the flat core needs the
access types and the intern tables, not the Table-1 combination or
the race predicates it inlines.
"""

from .._lazy import lazy_exports

#: public name -> defining submodule
_EXPORTS = {
    "AccessType": ".access",
    "DebugInfo": ".access",
    "MemoryAccess": ".access",
    "make_access": ".access",
    "combine_accesses": ".combine",
    "combined_type": ".combine",
    "table1_rows": ".combine",
    "Caller": ".conflict",
    "Op": ".conflict",
    "Placement": ".conflict",
    "fig3_matrix": ".conflict",
    "format_fig3": ".conflict",
    "is_race": ".conflict",
    "is_race_legacy": ".conflict",
    "types_conflict": ".conflict",
    "Interval": ".interval",
}

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
