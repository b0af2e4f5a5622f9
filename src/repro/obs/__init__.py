"""repro.obs — zero-dependency observability: metrics, spans, export.

One :class:`~repro.obs.registry.Registry` is active per process at any
time; instrumented code reaches it through :func:`active` (a module
global — no locks, registries are per-process by construction).  The
usual patterns::

    from repro import obs

    obs.add("serve.jobs.retried")                # cold-path counter
    events = obs.counter("detector.events")      # hot-path handle
    events.inc()

    with obs.span("analyze"):                    # nesting time tree
        with obs.span("read"):
            ...

    reg = obs.active()                           # per-event phase timing
    if reg.enabled:
        t0 = perf_counter_ns()
        ...
        reg.phase_ns("fragment", perf_counter_ns() - t0)

    snap = obs.snapshot()                        # JSON-able state

Scoping: :func:`scope` swaps in a fresh registry for one analysis run
and folds its snapshot back into the enclosing registry on exit — this
is how ``repro analyze`` reports per-run metrics while ``repro run``
accumulates across experiments.  The ``REPRO_OBS=off`` environment
switch turns every instrument into a shared no-op (see
:mod:`repro.obs.registry`).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator, Optional

from .._lazy import lazy_exports
from .registry import (
    BUCKET_BOUNDS,
    Counter,
    Gauge,
    Histogram,
    Registry,
    SpanNode,
    env_enabled,
    metric_key,
)
from .timeline import Timeline, timeline_context

__all__ = [
    "BUCKET_BOUNDS",
    "Counter",
    "Gauge",
    "Histogram",
    "Registry",
    "SpanNode",
    "Timeline",
    "active",
    "add",
    "counter",
    "env_enabled",
    "gauge",
    "histogram",
    "metric_key",
    "render_metrics",
    "reset",
    "scope",
    "set_registry",
    "snapshot",
    "snapshot_to_json",
    "span",
    "timeline",
    "timeline_context",
]

#: the text/JSON exporters load on first use: an analysis without
#: ``--metrics`` never formats a snapshot
__getattr__, __dir__ = lazy_exports(__name__, {
    "render_metrics": ".export",
    "snapshot_to_json": ".export",
})

#: the process-wide default registry — what every thread sees unless it
#: scoped its own (below)
_default = Registry()

#: per-thread registry override.  ``repro serve`` multiplexes concurrent
#: analyses over worker *threads*, each running under its own
#: ``obs.scope()``; a single process global would let those scopes race
#: each other's swap/restore and misattribute metrics across jobs.
_tls = threading.local()


def active() -> Registry:
    """The calling thread's active registry (its scope, else the default)."""
    reg = getattr(_tls, "registry", None)
    return reg if reg is not None else _default


def set_registry(reg: Registry) -> Registry:
    """Swap the active registry; returns the previous one.

    On the main thread this replaces the *process default* (the
    historical single-global behavior every existing caller relies on);
    on any other thread it installs a thread-local override, so
    concurrent scopes cannot clobber each other.
    """
    global _default
    prev = active()
    if threading.current_thread() is threading.main_thread():
        _default = reg
        _tls.registry = None
    else:
        _tls.registry = reg
    return prev


def reset(*, enabled: Optional[bool] = None) -> Registry:
    """Fresh active registry."""
    set_registry(Registry(enabled=enabled))
    return active()


@contextmanager
def scope(reg: Optional[Registry] = None, *,
          merge: bool = True) -> Iterator[Registry]:
    """Run a block under a fresh (or given) registry.

    On exit the scope's snapshot is merged into the enclosing registry
    (``merge=False`` discards it instead), so scoped runs stay visible
    to a caller accumulating globally.
    """
    inner = reg if reg is not None else Registry(enabled=active().enabled)
    outer = set_registry(inner)
    try:
        yield inner
    finally:
        set_registry(outer)
        if merge and outer.enabled and inner.enabled:
            outer.merge(inner.snapshot())
            if outer.timeline is not None and inner.timeline is not None:
                outer.timeline.absorb(inner.timeline)


# -- conveniences on the active registry ------------------------------------


def counter(name: str, **labels: str) -> Counter:
    return active().counter(name, **labels)


def gauge(name: str, **labels: str) -> Gauge:
    return active().gauge(name, **labels)


def histogram(name: str, **labels: str) -> Histogram:
    return active().histogram(name, **labels)


def add(name: str, n: int = 1) -> None:
    active().counter(name).add(n)


def span(name: str):
    return active().span(name)


def timeline() -> Optional[Timeline]:
    """The active registry's event timeline (None when disabled)."""
    return active().timeline


def snapshot() -> dict:
    return active().snapshot()
