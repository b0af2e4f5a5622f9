"""Self-contained HTML race report (zero dependencies, inline CSS/JS).

``render_html_report`` turns one analysis report dict (the
:meth:`repro.pipeline.PipelineResult.to_dict` shape) into a single HTML
file a browser opens directly — no external assets, no build step, safe
to attach to a CI run:

* a summary header (trace, detector, throughput, race count),
* one **race card** per verdict with the Fig. 9b message, both source
  locations, and — when forensics were captured — the surrounding
  per-rank event timeline in a ``<details>`` fold,
* an **SVG lane diagram**: one horizontal lane per rank fed from the
  ``repro-timeline-v1`` snapshot, every retained access drawn at its
  trace-sequence position, epoch boundaries ticked, and the accesses
  belonging to a detected race pair highlighted (the "colliding
  intervals").

Everything user-controlled (file names, interval bounds, access types)
is HTML-escaped.  The only script is a dozen lines toggling highlights.
"""

from __future__ import annotations

import html
import json
from typing import Dict, Iterable, List, Optional, Tuple

from ..core.forensics import issuer_text

__all__ = ["render_html_report"]

_CSS = """
body { font: 14px/1.45 system-ui, sans-serif; margin: 2em auto;
       max-width: 960px; color: #1a1a2e; background: #fafafa; }
h1 { font-size: 1.4em; } h2 { font-size: 1.15em; margin-top: 1.6em; }
code { background: #eef; padding: 0 .25em; border-radius: 3px; }
table.meta td { padding: .1em .8em .1em 0; }
.race-card { border: 1px solid #d33; border-left: 6px solid #d33;
             background: #fff; border-radius: 4px; padding: .8em 1em;
             margin: 1em 0; }
.race-card .msg { color: #a00; font-weight: 600; }
.race-card table { border-collapse: collapse; margin: .6em 0; }
.race-card th, .race-card td { border: 1px solid #ccc;
             padding: .25em .6em; text-align: left; font-size: .92em; }
.ok { color: #080; font-weight: 600; }
details { margin-top: .5em; }
details pre { background: #f4f4f8; padding: .6em; overflow-x: auto;
              font-size: .85em; }
svg .lane-label { font: 12px monospace; fill: #444; }
svg .acc { fill: #4a7fd4; } svg .acc.write { fill: #e0862c; }
svg .acc.race { fill: #d32; stroke: #900; stroke-width: 2; }
svg .sync { stroke: #aaa; stroke-width: 1; }
svg .epoch { stroke: #7b5; stroke-width: 2; }
svg rect:hover { opacity: .7; cursor: pointer; }
.legend span { margin-right: 1.4em; }
.swatch { display: inline-block; width: .8em; height: .8em;
          border-radius: 2px; vertical-align: -1px; margin-right: .3em; }
"""

_JS = """
document.querySelectorAll('svg .acc.race').forEach(function (el) {
  el.addEventListener('click', function () {
    var card = document.getElementById('race-' + el.dataset.race);
    if (card) { card.scrollIntoView({behavior: 'smooth'});
                card.style.outline = '3px solid #d32';
                setTimeout(function () { card.style.outline = ''; }, 1200); }
  });
});
"""


def _esc(value) -> str:
    return html.escape(str(value), quote=True)


def _access_key(acc: dict) -> Tuple:
    return (acc.get("lo"), acc.get("hi"), acc.get("type"),
            acc.get("file"), acc.get("line"))


def _race_keys(verdicts: Iterable[dict]) -> Dict[Tuple, int]:
    """Racing access -> index of the verdict it belongs to."""
    keys: Dict[Tuple, int] = {}
    for i, verdict in enumerate(verdicts):
        for side in ("stored", "new"):
            keys.setdefault(_access_key(verdict[side]), i)
    return keys


def _access_row(label: str, acc: dict) -> str:
    return (
        f"<tr><td>{_esc(label)}</td><td><code>{_esc(acc['type'])}</code>"
        f"</td><td>[{_esc(acc['lo'])}, {_esc(acc['hi'])}]</td>"
        f"<td>{_esc(issuer_text(acc['origin']))}</td>"
        f"<td><code>{_esc(acc['file'])}:{_esc(acc['line'])}</code></td>"
        f"</tr>"
    )


def _race_card(i: int, verdict: dict, bundle: Optional[dict]) -> str:
    stored, new = verdict["stored"], verdict["new"]
    msg = (
        f"Error when inserting memory access of type {new['type']} from "
        f"file {new['file']}:{new['line']} with already inserted interval "
        f"of type {stored['type']} from file "
        f"{stored['file']}:{stored['line']}."
    )
    parts = [f'<div class="race-card" id="race-{i}">']
    parts.append(
        f"<div class='msg'>race {i}: window {_esc(verdict['window'])}, "
        f"memory rank {_esc(verdict['rank'])}</div>"
    )
    parts.append(f"<p>{_esc(msg)}</p>")
    parts.append("<table><tr><th></th><th>type</th><th>interval</th>"
                 "<th>issuer</th><th>source</th></tr>")
    parts.append(_access_row("stored", stored))
    parts.append(_access_row("new", new))
    parts.append("</table>")
    if bundle:
        parts.append(
            f"<div>flagged by <code>{_esc(bundle['detector'])}</code> in "
            f"phase <code>{_esc(bundle['phase'])}</code></div>"
        )
        sync = bundle.get("sync") or {}
        if sync.get("open_epochs") is not None:
            parts.append(
                f"<div>open epochs on window: ranks "
                f"{_esc(sync['open_epochs'])}</div>"
            )
        views = (bundle.get("timeline") or {}).get("views", {})
        if views:
            parts.append("<details><summary>surrounding timeline "
                         "events</summary><pre>")
            for rank_key in sorted(views, key=int):
                parts.append(f"rank {_esc(rank_key)}:")
                for event in views[rank_key]:
                    parts.append("  " + _esc(json.dumps(event,
                                                        sort_keys=True)))
            parts.append("</pre></details>")
    parts.append("</div>")
    return "\n".join(parts)


def _svg_lanes(timeline: dict, race_keys: Dict[Tuple, int]) -> str:
    """One horizontal lane per rank; racing accesses highlighted."""
    lanes = timeline.get("lanes", {})
    if not lanes:
        return "<p>(no timeline recorded)</p>"
    seqs = [e["seq"] for events in lanes.values() for e in events]
    if not seqs:
        return "<p>(timeline empty)</p>"
    lo_seq, hi_seq = min(seqs), max(seqs)
    span = max(1, hi_seq - lo_seq)
    width, lane_h, left = 900, 34, 80
    plot_w = width - left - 20

    def x_of(seq: int) -> float:
        return left + plot_w * (seq - lo_seq) / span

    rows: List[str] = []
    lane_ids = sorted(lanes, key=int)
    height = lane_h * len(lane_ids) + 30
    rows.append(
        f'<svg viewBox="0 0 {width} {height}" width="100%" '
        f'xmlns="http://www.w3.org/2000/svg">'
    )
    for row, lane_key in enumerate(lane_ids):
        y = 20 + row * lane_h
        rows.append(
            f'<text class="lane-label" x="8" y="{y + 14}">'
            f"rank {_esc(lane_key)}</text>"
        )
        rows.append(
            f'<line class="sync" x1="{left}" y1="{y + 20}" '
            f'x2="{width - 20}" y2="{y + 20}" />'
        )
        for event in lanes[lane_key]:
            x = x_of(event["seq"])
            kind = event["kind"]
            if kind in ("rma", "local"):
                key = _access_key(event)
                race_i = race_keys.get(key)
                cls = "acc"
                if event.get("type", "").endswith("WRITE") or \
                        event.get("type") == "STORE":
                    cls += " write"
                extra = ""
                if race_i is not None:
                    cls += " race"
                    extra = f' data-race="{race_i}"'
                tip = (f"seq {event['seq']}: {kind} "
                       f"[{event.get('lo')}, {event.get('hi')}] "
                       f"{event.get('type')} "
                       f"{event.get('file')}:{event.get('line')}")
                rows.append(
                    f'<rect class="{cls}"{extra} x="{x - 3:.1f}" '
                    f'y="{y + 6}" width="7" height="14" rx="1">'
                    f"<title>{_esc(tip)}</title></rect>"
                )
            else:
                cls = "epoch" if kind in ("lock_all", "unlock_all",
                                          "fence") else "sync"
                tip = f"seq {event['seq']}: {kind} (rank {event['rank']})"
                rows.append(
                    f'<line class="{cls}" x1="{x:.1f}" y1="{y + 2}" '
                    f'x2="{x:.1f}" y2="{y + 30}">'
                    f"<title>{_esc(tip)}</title></line>"
                )
    rows.append("</svg>")
    rows.append(
        '<p class="legend">'
        '<span><span class="swatch" style="background:#4a7fd4"></span>'
        "read access</span>"
        '<span><span class="swatch" style="background:#e0862c"></span>'
        "write access</span>"
        '<span><span class="swatch" style="background:#d32"></span>'
        "racing access (click to jump)</span>"
        '<span><span class="swatch" style="background:#7b5"></span>'
        "epoch boundary</span></p>"
    )
    return "\n".join(rows)


def render_html_report(report: dict, *,
                       title: str = "repro race report") -> str:
    """The full standalone HTML document for one analysis report."""
    verdicts = report.get("verdicts", [])
    forensics = report.get("forensics", []) or []
    by_key = {
        (b["rank"], b["window"], _access_key(b["stored"]),
         _access_key(b["new"])): b
        for b in forensics
    }
    parts: List[str] = []
    parts.append("<!DOCTYPE html>")
    parts.append(f"<html lang='en'><head><meta charset='utf-8'>"
                 f"<title>{_esc(title)}</title>"
                 f"<style>{_CSS}</style></head><body>")
    parts.append(f"<h1>{_esc(title)}</h1>")
    parts.append("<table class='meta'>")
    for label, key in (("detector", "detector"), ("ranks", "nranks"),
                       ("events", "events_total")):
        if key in report:
            parts.append(f"<tr><td>{label}</td>"
                         f"<td><b>{_esc(report[key])}</b></td></tr>")
    parts.append("</table>")

    n = len(verdicts)
    if n:
        parts.append(f"<h2>{n} race{'s' if n != 1 else ''} detected</h2>")
        for i, verdict in enumerate(verdicts):
            bundle = by_key.get(
                (verdict["rank"], verdict["window"],
                 _access_key(verdict["stored"]),
                 _access_key(verdict["new"])))
            parts.append(_race_card(i, verdict, bundle))
    else:
        parts.append("<h2 class='ok'>no races detected</h2>")

    timeline = report.get("timeline")
    if timeline:
        parts.append("<h2>per-rank timeline</h2>")
        parts.append(_svg_lanes(timeline, _race_keys(verdicts)))
    parts.append(f"<script>{_JS}</script>")
    parts.append("</body></html>")
    return "\n".join(parts)
