"""Export surfaces for registry snapshots: text table and JSON.

``render_metrics`` is what ``repro analyze --metrics`` / ``repro run
--metrics`` print; ``snapshot_to_json`` backs ``--metrics-json PATH``.
Both operate on the plain snapshot dict (not the live registry), so the
same code renders a snapshot read back from a result or a checkpoint.
"""

from __future__ import annotations

import json
from typing import Any, List, Sequence

from .registry import BUCKET_BOUNDS

__all__ = ["format_cell", "render_metrics", "render_table", "snapshot_to_json",
           "span_rows"]


def snapshot_to_json(snap: dict, *, indent: int = 2) -> str:
    """Stable machine-readable dump (keys sorted, schema tag included)."""
    return json.dumps(snap, indent=indent, sort_keys=True)


def _fmt_ms(ns: int) -> str:
    return f"{ns / 1e6:,.2f}"


def span_rows(snap: dict) -> List[List[str]]:
    """(indented name, count, total ms, self ms) rows of the span tree."""

    rows: List[List[str]] = []

    def walk(node: dict, name: str, depth: int) -> None:
        children = node.get("children", {})
        child_ns = sum(c.get("total_ns", 0) for c in children.values())
        total = node.get("total_ns", 0)
        if name:
            rows.append([
                "  " * (depth - 1) + name,
                f"{node.get('count', 0):,}",
                _fmt_ms(total),
                _fmt_ms(max(0, total - child_ns)),
            ])
        for sub in sorted(children):
            walk(children[sub], sub, depth + 1)

    walk(snap.get("spans", {}), "", 0)
    return rows


def _histogram_summary(hv: dict) -> str:
    """``n=..., mean=..., max=...`` — the exact observed maximum.

    ``Histogram.observe`` tracks the true max, so wide buckets no
    longer produce a misleading upper-bound estimate.  Snapshots from
    older writers (no ``max`` key) fall back to the top occupied
    bucket's bound, marked ``max<=``.
    """
    n = hv.get("n", 0)
    if not n:
        return "n=0"
    mean = hv.get("total", 0) / n
    vmax = hv.get("max", 0)
    if vmax:
        return f"n={n:,} mean={mean:.2f} max={vmax:,}"
    top = 0
    for i, count in enumerate(hv.get("counts", [])):
        if count:
            top = i
    if top == 0:
        return f"n={n:,} mean={mean:.2f} max=0"
    # bucket i holds values of bit_length i: upper bound 2**i - ... use bound
    bound = BUCKET_BOUNDS[top] if top < len(BUCKET_BOUNDS) else BUCKET_BOUNDS[-1]
    return f"n={n:,} mean={mean:.2f} max<={bound:,}"


def format_cell(value: Any) -> str:
    """One table cell: bools as yes/no, ints and large floats with
    thousands separators, small floats to three decimals."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        return f"{value:.3f}"
    if isinstance(value, int):
        return f"{value:,}"
    return str(value)


def render_table(
    headers: Sequence[str], rows: Sequence[Sequence[Any]]
) -> str:
    """Align columns; numbers become human-readable strings."""
    table = [[format_cell(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in table:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for row in table:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def render_metrics(snap: dict) -> str:
    """Human-readable table of one snapshot (counters/gauges/hist/spans)."""
    sections: List[str] = []
    counters = snap.get("counters", {})
    if counters:
        rows = [[k, f"{v:,}"] for k, v in sorted(counters.items())]
        sections.append("counters\n" + render_table(["name", "value"], rows))
    gauges = snap.get("gauges", {})
    if gauges:
        rows = [
            [k, f"{g['value']:,}", f"{g['peak']:,}"]
            for k, g in sorted(gauges.items())
        ]
        sections.append("gauges\n" + render_table(["name", "value", "peak"],
                                                  rows))
    hists = snap.get("histograms", {})
    if hists:
        rows = [[k, _histogram_summary(h)] for k, h in sorted(hists.items())]
        sections.append("histograms\n"
                        + render_table(["name", "distribution"], rows))
    spans = span_rows(snap)
    if spans:
        sections.append("spans\n" + render_table(
            ["span", "count", "total ms", "self ms"], spans))
    if not sections:
        return "(no metrics recorded — is REPRO_OBS=off?)"
    return "\n\n".join(sections)
