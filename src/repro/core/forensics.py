"""Race forensics: the diagnostic bundle captured at detection time.

The real tool prints the Fig. 9b abort message — two access types and
two source locations — and stops.  That names the racing pair but not
*why* the tool considered it a race: which epoch the accesses fell in,
what synchronization happened around them, how big the analysis state
was when the search hit.  This module captures exactly that context the
moment a detector files a :class:`~repro.core.report.RaceReport`:

* the racing pair itself (full access metadata, same dicts the trace
  format uses),
* which algorithm phase flagged it (``data_race_detection`` for the
  paper's Algorithm 1, ``legacy_search`` for the original tool's
  intersection query, ...),
* the window's synchronization state (open epochs, flush generations)
  and the racing store's tree statistics at that instant,
* the surrounding event timeline: the K most recent events of each
  involved rank, from the :class:`repro.obs.timeline.Timeline` lane of
  the memory rank that detected the race.

The bundle is a plain dict (schema ``repro-forensics-v1``), JSON-stable,
and deterministic across analysis paths: every timeline feed projects
events onto rank lanes by the same rule, so the lane it reads holds the
same events at the same point in the event stream whether the trace
was replayed live, decoded, read as wire records or resumed from a
checkpoint.

``render_explain`` turns one bundle into the annotated text diagnostic
behind ``repro explain``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from ..intervals.access import access_to_dict
from ..obs.timeline import Timeline, timeline_context

__all__ = [
    "FORENSICS_SCHEMA",
    "capture_forensics",
    "forensics_message",
    "issuer_text",
    "render_explain",
    "render_explain_all",
]

FORENSICS_SCHEMA = "repro-forensics-v1"


def _origin_ranks(origin) -> List[int]:
    """The ranks an access's ``origin`` names: itself, or those of an
    origin set (also in its JSON form, a list of pairs)."""
    if isinstance(origin, (tuple, list)):
        return [rank for rank, _ in origin]
    return [origin]


def issuer_text(origin) -> str:
    """``"rank 3"``, or ``"ranks 0, 2"`` for an origin set."""
    ranks = _origin_ranks(origin)
    return f"rank{'s' * (len(ranks) > 1)} {', '.join(map(str, ranks))}"


def _involved_ranks(rank: int, stored_origin, new_origin) -> List[int]:
    """The ranks a diagnostic must show, deduplicated, detection rank first
    (every rank of an origin set)."""
    ranks: List[int] = []
    for r in (rank, *_origin_ranks(stored_origin),
              *_origin_ranks(new_origin)):
        if r >= 0 and r not in ranks:
            ranks.append(r)
    return ranks


def capture_forensics(
    detector,
    timeline: Optional[Timeline],
    rank: int,
    wid: int,
    stored,
    new,
    *,
    phase: str,
    k: int = 8,
) -> dict:
    """Build one ``repro-forensics-v1`` bundle for a just-detected race.

    Called from ``Detector._report`` on the cold path (races are rare by
    construction); everything here is plain dict assembly.  ``detector``
    contributes tool state through two optional hooks —
    ``forensic_sync_state(wid)`` and ``forensic_tree_state(rank, wid)``
    — which default to empty on the base class.
    """
    ranks = _involved_ranks(rank, stored.origin, new.origin)
    return {
        "schema": FORENSICS_SCHEMA,
        "detector": detector.name,
        "phase": phase,
        "rank": rank,
        "window": wid,
        "stored": access_to_dict(stored),
        "new": access_to_dict(new),
        "sync": detector.forensic_sync_state(wid),
        "tree": detector.forensic_tree_state(rank, wid),
        "timeline": timeline_context(timeline, rank, ranks, k=k),
    }


def forensics_message(bundle: dict) -> str:
    """The Fig. 9b abort text, reconstructed from a forensics bundle."""
    new, stored = bundle["new"], bundle["stored"]
    return (
        f"Error when inserting memory access of type {new['type']} "
        f"from file {new['file']}:{new['line']} with already inserted "
        f"interval of type {stored['type']} from file "
        f"{stored['file']}:{stored['line']}. "
        f"The program will be exiting now with MPI_Abort."
    )


def _matches(event: dict, acc: dict) -> bool:
    """Does a timeline event record this racing access?"""
    return (
        event.get("lo") == acc["lo"]
        and event.get("hi") == acc["hi"]
        and event.get("file") == acc["file"]
        and event.get("line") == acc["line"]
        and event.get("type") == acc["type"]
    )


def _fmt_event(event: dict, bundle: dict) -> str:
    """One timeline line: ``seq kind detail  [marker]``."""
    kind = event["kind"]
    parts = [f"#{event['seq']:>6}"]
    if kind == "rma":
        parts.append(
            f"{event['op']} rank {event['rank']} -> {event['target']} "
            f"win {event['wid']}"
        )
    elif kind == "local":
        parts.append(f"local rank {event['rank']}")
    else:
        who = "world" if event["rank"] < 0 else f"rank {event['rank']}"
        wid = event.get("wid", -1)
        parts.append(f"{kind} {who}" + (f" win {wid}" if wid >= 0 else ""))
    if "lo" in event:
        parts.append(
            f"[{event['lo']}, {event['hi']}] {event['type']} "
            f"{event['file']}:{event['line']}"
        )
    marker = ""
    if "lo" in event:
        if _matches(event, bundle["new"]):
            marker = "  <-- racing access (new)"
        elif _matches(event, bundle["stored"]):
            marker = "  <-- racing access (stored)"
    return "  ".join(parts) + marker


def render_explain(bundle: dict, *, index: Optional[int] = None) -> str:
    """Annotated text diagnostic of one race (the ``repro explain`` body)."""
    lines: List[str] = []
    head = f"race {index}" if index is not None else "race"
    lines.append("=" * 72)
    lines.append(
        f"{head}: window {bundle['window']}, memory rank {bundle['rank']} "
        f"(detector {bundle['detector']}, phase {bundle['phase']})"
    )
    lines.append("=" * 72)
    lines.append(forensics_message(bundle))
    lines.append("")
    stored, new = bundle["stored"], bundle["new"]
    lines.append(
        f"  stored: {stored['type']:<10} [{stored['lo']}, {stored['hi']}] "
        f"issued by {issuer_text(stored['origin'])} at "
        f"{stored['file']}:{stored['line']}"
    )
    lines.append(
        f"  new:    {new['type']:<10} [{new['lo']}, {new['hi']}] "
        f"issued by {issuer_text(new['origin'])} at "
        f"{new['file']}:{new['line']}"
    )
    sync = bundle.get("sync") or {}
    if sync:
        bits = []
        epochs = sync.get("open_epochs")
        if epochs is not None:
            bits.append(f"open epochs on window: ranks {epochs}")
        gens = sync.get("flush_gens")
        if gens:
            bits.append(f"flush generations: {gens}")
        if sync.get("window_known") is False:
            bits.append("window unknown to the detector")
        if bits:
            lines.append("")
            lines.append("sync state at detection: " + "; ".join(bits))
    tree = bundle.get("tree")
    if tree:
        lines.append(
            f"racing store: {tree.get('nodes', 0)} nodes "
            f"(peak {tree.get('max_size', 0)}), "
            f"{tree.get('queries', 0)} queries so far"
        )
    tl = bundle.get("timeline") or {}
    views: Dict[str, List[dict]] = tl.get("views", {})
    for rank_key in sorted(views, key=int):
        events = views[rank_key]
        lines.append("")
        lines.append(
            f"timeline of rank {rank_key} "
            f"(last {tl.get('k', 0)} events, lane {tl.get('lane')}):"
        )
        if not events:
            lines.append("  (no events retained)")
        for event in events:
            lines.append("  " + _fmt_event(event, bundle))
    return "\n".join(lines)


def render_explain_all(bundles: Iterable[dict]) -> str:
    """Concatenated diagnostics for every race of one analysis."""
    chunks = [
        render_explain(b, index=i) for i, b in enumerate(bundles)
    ]
    if not chunks:
        return "no races detected — nothing to explain."
    return "\n\n".join(chunks)
