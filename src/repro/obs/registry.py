"""The metrics registry: counters, gauges, fixed-bucket histograms.

Design constraints (see DESIGN.md §"Observability"):

* **Cheap enough to stay on by default.**  An instrument is a tiny
  ``__slots__`` object the instrumented code holds directly (or reaches
  through one dict lookup); recording is an attribute add.  There are
  no locks — a registry belongs to one thread of one process (serve's
  worker threads each run under their own scope).
* **A hard off switch.**  With ``REPRO_OBS=off`` every accessor returns
  a shared null instrument whose record methods are no-ops, and
  :meth:`Registry.span` returns a shared no-op context manager — the
  instrumented code keeps exactly one extra method call per record
  point and zero clock reads.
* **Mergeable snapshots.**  :meth:`Registry.snapshot` produces a plain
  JSON-able dict; :meth:`Registry.merge` folds such a snapshot back in
  (counters sum, gauge values sum / peaks max, histogram buckets sum,
  span trees add node-wise).  This is how a checkpoint's registry
  folds back into a resumed analysis, and a scope's into its caller's.

Metric naming: dotted lowercase paths (``core.insert.fragments``),
optionally labelled — ``counter("detector.events", tool="MUST-RMA")``
is stored under the key ``detector.events{tool=MUST-RMA}``.  Labels are
part of the key, nothing more; there is no label indexing.
"""

from __future__ import annotations

import os
from time import perf_counter_ns
from typing import Dict, List, Optional, Tuple

from .timeline import make_timeline

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Registry",
    "SpanNode",
    "env_enabled",
    "metric_key",
]

#: histogram bucket upper bounds: powers of two up to 2**20, then +inf.
#: Fixed at module level so snapshots from any process line up bucket
#: for bucket and merging is a plain element-wise sum.
BUCKET_BOUNDS: Tuple[int, ...] = tuple(2 ** i for i in range(21))
_NBUCKETS = len(BUCKET_BOUNDS) + 1  # one overflow bucket


def env_enabled(default: bool = True) -> bool:
    """The ``REPRO_OBS`` switch: off/0/false/no disable, anything else on."""
    raw = os.environ.get("REPRO_OBS")
    if raw is None:
        return default
    return raw.strip().lower() not in ("off", "0", "false", "no", "disabled")


def metric_key(name: str, labels: Dict[str, str]) -> str:
    """``name`` or ``name{k=v,...}`` with label keys sorted."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class Counter:
    """Monotonic event count; merge = sum."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def add(self, n: int = 1) -> None:
        self.value += n

    def inc(self) -> None:
        self.value += 1


class Gauge:
    """Last-set value with a high-water mark.

    Merge semantics: ``value`` sums (merged registries describe
    disjoint state), ``peak`` maxes.
    """

    __slots__ = ("value", "peak")

    def __init__(self) -> None:
        self.value = 0
        self.peak = 0

    def set(self, v) -> None:
        self.value = v
        if v > self.peak:
            self.peak = v


class Histogram:
    """Fixed-bucket distribution (bounds :data:`BUCKET_BOUNDS`); merge = sum.

    ``observe`` buckets by ``int.bit_length`` — one arithmetic op, no
    search — so it is safe on query-fan-out and latency hot paths.
    ``vmax`` tracks the exact observed maximum (one compare per
    observe), so summaries never have to estimate it from the top
    occupied bucket's upper bound.
    """

    __slots__ = ("counts", "total", "n", "vmax")

    def __init__(self) -> None:
        self.counts = [0] * _NBUCKETS
        self.total = 0
        self.n = 0
        self.vmax = 0

    def observe(self, v: int) -> None:
        # bucket i holds values with bit_length i (<= BUCKET_BOUNDS[i])
        i = v.bit_length() if v > 0 else 0
        self.counts[i if i < _NBUCKETS else _NBUCKETS - 1] += 1
        self.total += v
        self.n += 1
        if v > self.vmax:
            self.vmax = v

    @property
    def mean(self) -> float:
        return self.total / self.n if self.n else 0.0


class SpanNode:
    """One node of the span time-tree: cumulative wall time by phase."""

    __slots__ = ("name", "count", "total_ns", "children")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total_ns = 0
        self.children: Dict[str, "SpanNode"] = {}

    def child(self, name: str) -> "SpanNode":
        node = self.children.get(name)
        if node is None:
            node = SpanNode(name)
            self.children[name] = node
        return node

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "total_ns": self.total_ns,
            "children": {
                k: self.children[k].to_dict() for k in sorted(self.children)
            },
        }

    def merge_dict(self, d: dict) -> None:
        self.count += d.get("count", 0)
        self.total_ns += d.get("total_ns", 0)
        for name, sub in d.get("children", {}).items():
            self.child(name).merge_dict(sub)


class _Span:
    """Context manager of one span activation (allocated per ``with``)."""

    __slots__ = ("_reg", "_name", "_node", "_t0")

    def __init__(self, reg: "Registry", name: str) -> None:
        self._reg = reg
        self._name = name

    def __enter__(self) -> "_Span":
        stack = self._reg._stack
        self._node = stack[-1].child(self._name)
        stack.append(self._node)
        self._t0 = perf_counter_ns()
        return self

    def __exit__(self, *exc) -> None:
        node = self._node
        node.total_ns += perf_counter_ns() - self._t0
        node.count += 1
        stack = self._reg._stack
        # tolerate exits out of order (an exception unwound past spans)
        while stack[-1] is not node and len(stack) > 1:
            stack.pop()
        if len(stack) > 1:
            stack.pop()


class _NullSpan:
    """Shared no-op context manager for disabled registries."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass


class _NullCounter(Counter):
    __slots__ = ()

    def add(self, n: int = 1) -> None:
        pass

    inc = add  # type: ignore[assignment]


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, v) -> None:
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, v: int) -> None:
        pass


_NULL_SPAN = _NullSpan()
_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_HISTOGRAM = _NullHistogram()


class Registry:
    """One process's metrics: instruments by key plus the span tree.

    Hot-path contract: callers that record once *per analysed access*
    must (a) cache the instrument object and bump ``.value`` directly —
    the get-or-create accessors cost a key format plus a dict probe per
    call, which blows the <=5% metrics-on budget at that frequency —
    and (b) gate clock reads on :meth:`sample`, which approves one call
    in ``SAMPLE_MASK + 1``.  Cached handles stay valid across
    :meth:`reset` (instruments are zeroed in place, never replaced) but
    belong to *this* registry: recheck identity after any
    ``obs.scope()`` / ``obs.reset()`` swap.
    """

    #: phase timings on per-access paths keep 1 sample in (mask + 1),
    #: a fixed period both detector cores read; counts stay exact,
    #: sampled span totals are a profile, not a sum
    SAMPLE_MASK = 63

    def __init__(self, *, enabled: Optional[bool] = None) -> None:
        #: hot-path guard — instrumented code may skip clock reads on it
        self.enabled: bool = env_enabled() if enabled is None else enabled
        #: bounded per-rank event history feeding race forensics; None
        #: when obs or REPRO_OBS_TIMELINE is off
        self.timeline = make_timeline(enabled=self.enabled)
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._tick = 0
        self.root = SpanNode("")
        self._stack: List[SpanNode] = [self.root]

    # -- instrument accessors (get-or-create) -------------------------------

    def counter(self, name: str, **labels: str) -> Counter:
        if not self.enabled:
            return _NULL_COUNTER
        key = metric_key(name, labels)
        c = self._counters.get(key)
        if c is None:
            c = self._counters[key] = Counter()
        return c

    def gauge(self, name: str, **labels: str) -> Gauge:
        if not self.enabled:
            return _NULL_GAUGE
        key = metric_key(name, labels)
        g = self._gauges.get(key)
        if g is None:
            g = self._gauges[key] = Gauge()
        return g

    def histogram(self, name: str, **labels: str) -> Histogram:
        if not self.enabled:
            return _NULL_HISTOGRAM
        key = metric_key(name, labels)
        h = self._histograms.get(key)
        if h is None:
            h = self._histograms[key] = Histogram()
        return h

    def add(self, name: str, n: int = 1) -> None:
        """One-shot counter add for cold paths (no instrument handle)."""
        self.counter(name).add(n)

    # -- spans --------------------------------------------------------------

    def span(self, name: str):
        """``with reg.span("stage"):`` — nests under the active span."""
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, name)

    def phase_ns(self, name: str, dt_ns: int) -> None:
        """Low-level span accumulation for per-event hot paths.

        Books ``dt_ns`` on the child ``name`` of the *currently active*
        span without pushing the stack — two clock reads and a dict get
        at the call site, nothing more.  Callers must guard with
        ``if reg.enabled:`` (this method assumes an enabled registry).
        """
        node = self._stack[-1].child(name)
        node.count += 1
        node.total_ns += dt_ns

    def sample(self) -> bool:
        """True once per ``SAMPLE_MASK + 1`` calls — gate hot clock reads.

        Hot loops may inline the same arithmetic on ``_tick`` to save
        the call frame; this method is the readable form.
        """
        t = self._tick + 1
        self._tick = t
        return not (t & self.SAMPLE_MASK)

    # -- lifecycle ----------------------------------------------------------

    def reset(self) -> None:
        """Zero every instrument *in place* — cached handles stay valid."""
        for c in self._counters.values():
            c.value = 0
        for g in self._gauges.values():
            g.value = 0
            g.peak = 0
        for h in self._histograms.values():
            h.counts = [0] * _NBUCKETS
            h.total = 0
            h.n = 0
            h.vmax = 0
        self._tick = 0
        self.root = SpanNode("")
        self._stack = [self.root]
        if self.timeline is not None:
            self.timeline.clear()

    # -- snapshot / merge ---------------------------------------------------

    def snapshot(self) -> dict:
        """Stable, JSON-able state dump (schema ``repro-obs-v1``)."""
        return {
            "schema": "repro-obs-v1",
            "counters": {
                k: self._counters[k].value for k in sorted(self._counters)
            },
            "gauges": {
                k: {"value": g.value, "peak": g.peak}
                for k, g in sorted(self._gauges.items())
            },
            "histograms": {
                k: {"counts": list(h.counts), "total": h.total, "n": h.n,
                    "max": h.vmax}
                for k, h in sorted(self._histograms.items())
            },
            "spans": self.root.to_dict(),
        }

    def merge(self, snap: dict) -> None:
        """Fold a :meth:`snapshot` dict into this registry."""
        if not self.enabled or not snap:
            return
        for key, value in snap.get("counters", {}).items():
            c = self._counters.get(key)
            if c is None:
                c = self._counters[key] = Counter()
            c.value += value
        for key, gv in snap.get("gauges", {}).items():
            g = self._gauges.get(key)
            if g is None:
                g = self._gauges[key] = Gauge()
            g.value += gv["value"]
            if gv["peak"] > g.peak:
                g.peak = gv["peak"]
        for key, hv in snap.get("histograms", {}).items():
            h = self._histograms.get(key)
            if h is None:
                h = self._histograms[key] = Histogram()
            for i, n in enumerate(hv["counts"]):
                h.counts[i] += n
            h.total += hv["total"]
            h.n += hv["n"]
            m = hv.get("max", 0)
            if m > h.vmax:
                h.vmax = m
        self.root.merge_dict(snap.get("spans", {}))
