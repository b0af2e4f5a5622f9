"""Plain-text table/series rendering for the experiment drivers.

The paper's figures are bar charts and line plots; in a terminal-first
reproduction every driver renders its result as an aligned text table
(with an optional ASCII bar column for the chart-shaped figures) plus a
structured payload tests can assert on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Sequence

from ..obs.export import format_cell, render_table

__all__ = ["ExperimentResult", "render_table", "render_bars"]


@dataclass
class ExperimentResult:
    """One regenerated table/figure: identifier, text, structured data."""

    exp_id: str
    title: str
    text: str
    data: Dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        header = f"== {self.exp_id}: {self.title} =="
        return f"{header}\n{self.text}"


def render_bars(
    labels: Sequence[str],
    values: Sequence[float],
    *,
    unit: str = "",
    width: int = 48,
) -> str:
    """Horizontal ASCII bar chart (the Fig. 10 shape)."""
    vmax = max(values) if values else 0.0
    lwidth = max((len(l) for l in labels), default=0)
    lines = []
    for label, value in zip(labels, values):
        n = int(round(width * value / vmax)) if vmax > 0 else 0
        bar = "#" * max(n, 1 if value > 0 else 0)
        lines.append(f"{label.ljust(lwidth)}  {bar} {format_cell(value)}{unit}")
    return "\n".join(lines)
