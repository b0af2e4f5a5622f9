"""The traced run: per-layer counts and self times from in-process reps.

Tracing wraps the public functions of each layer from this file — the
program itself is unchanged — and is installed only around traced
repetitions, so the untraced reps it is interleaved with run the plain
code.  A span is (name, start, end, parent, run id); spans of the
coarse layers are kept in memory and written out when the run ends,
while the per-access layers (BST, timeline, decode, hooks) only
accumulate counts and times, which keeps memory flat.

A layer's *self* time is its span minus the time of the spans it
called.  On the thread that runs a repetition, the self times of the
layer spans (the root span of the repetition left out) must add up to
that repetition's wall within 5%; what they miss is time no layer
wrapper covers, so a missing or mis-nested wrapper fails the run.
Server-side threads of the in-process ``repro serve`` stack form their
own span trees and are reported, not summed.

The end-to-end numbers never come from here: tracing slows the traced
reps (``trace_overhead_pct``).  The untraced reps also give the
in-process rates (``untraced_events_per_s``, ``untraced_ops_per_s``).
"""

from __future__ import annotations

import functools
import json
import shutil
import statistics
import sys
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

from common import INPUTS, RESULTS, WORK, Sizes, Tally, summary, verdict_digest
from workloads import (Budget, live_op, live_setup, run_child, serve_round,
                       serve_rounds)

SELF_SUM_TOLERANCE = 0.05
#: non-default modes against the default path, analyze workloads only
AB_RATIOS = ("pipeline.checkpoint.overhead_x",
             "pipeline.engine.jobs2_speedup.queue",
             "pipeline.engine.jobs2_speedup.file")


class _ThreadState:
    __slots__ = ("thread", "stack", "stats", "counts", "peaks", "spans")

    def __init__(self, thread: str) -> None:
        self.thread = thread
        self.stack: List[list] = []
        self.stats: Dict[str, list] = {}
        self.counts: Dict[str, float] = {}
        self.peaks: Dict[str, float] = {}
        self.spans: List[tuple] = []


class Tracer:
    """Per-thread span stacks; aggregates per layer, spans for coarse ones."""

    def __init__(self) -> None:
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._states: List[_ThreadState] = []
        self.run_id = 0
        #: trace path -> admission time, for the scheduler's queue wait
        self.admitted: Dict[str, float] = {}

    def state(self) -> _ThreadState:
        st = getattr(self._tls, "st", None)
        if st is None:
            st = _ThreadState(threading.current_thread().name)
            self._tls.st = st
            with self._lock:
                self._states.append(st)
        return st

    def enter(self, name: str) -> list:
        st = self.state()
        frame = [name, time.perf_counter(), 0.0, st]
        st.stack.append(frame)
        return frame

    def leave(self, frame: list, hot: bool) -> None:
        t1 = time.perf_counter()
        st = frame[3]
        stack = st.stack
        stack.pop()
        dur = t1 - frame[1]
        s = st.stats.get(frame[0])
        if s is None:
            s = st.stats[frame[0]] = [0, 0.0, 0.0]
        s[0] += 1
        s[1] += dur
        s[2] += dur - frame[2]
        if stack:
            stack[-1][2] += dur
        if not hot:
            st.spans.append((frame[0], frame[1], t1,
                             stack[-1][0] if stack else None, self.run_id,
                             st.thread))

    def count(self, key: str, n: float = 1) -> None:
        c = self.state().counts
        c[key] = c.get(key, 0) + n

    def peak(self, key: str, v: float) -> None:
        p = self.state().peaks
        if v > p.get(key, 0):
            p[key] = v

    @contextmanager
    def span(self, name: str):
        frame = self.enter(name)
        try:
            yield
        finally:
            self.leave(frame, False)

    def reset(self, run_id: int) -> None:
        """Start a repetition: fresh aggregates (spans are kept)."""
        self.run_id = run_id
        with self._lock:
            for st in self._states:
                st.stats = {}
                st.counts = {}
                st.peaks = {}

    def collect(self) -> dict:
        """Aggregates since the last reset, all threads and main thread."""
        total: Dict[str, list] = {}
        main: Dict[str, list] = {}
        counts: Dict[str, float] = {}
        peaks: Dict[str, float] = {}
        with self._lock:
            states = list(self._states)
        for st in states:
            is_main = st.thread == threading.main_thread().name
            for name, (n, tot, slf) in list(st.stats.items()):
                for agg in ((total, main) if is_main else (total,)):
                    a = agg.setdefault(name, [0, 0.0, 0.0])
                    a[0] += n
                    a[1] += tot
                    a[2] += slf
            for k, v in list(st.counts.items()):
                counts[k] = counts.get(k, 0) + v
            for k, v in list(st.peaks.items()):
                peaks[k] = max(peaks.get(k, 0), v)
        return {"stats": total, "main": main, "counts": counts,
                "peaks": peaks}

    def spans(self) -> List[tuple]:
        with self._lock:
            return [s for st in self._states for s in st.spans]


# -- wrappers -----------------------------------------------------------------


def _wrap_call(tracer: Tracer, name: str, fn: Callable, *, hot: bool,
               pre=None, post=None, only=None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if only is not None and not only(args):
            return fn(*args, **kwargs)
        if pre is not None:
            pre(tracer, args)
        frame = tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.leave(frame, hot)
        if post is not None:
            post(tracer, args, result)
        return result
    return wrapper


def _wrap_iter(tracer: Tracer, name: str, fn: Callable, *,
               count=None) -> Callable:
    """Trace every ``next`` of the iterator ``fn`` returns (hot)."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        inner = iter(fn(*args, **kwargs))

        def gen():
            while True:
                frame = tracer.enter(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer.leave(frame, True)
                if count is not None:
                    tracer.count(name, count(item))
                yield item
        return gen()
    return wrapper


class Patch:
    """Install wrappers on classes and on every ``repro`` module alias."""

    def __init__(self) -> None:
        self._undo: List[Callable[[], None]] = []

    def method(self, cls, attr: str, wrapper_of: Callable) -> None:
        own = attr in cls.__dict__
        orig = cls.__dict__[attr] if own else getattr(cls, attr)
        setattr(cls, attr, wrapper_of(orig))
        self._undo.append(lambda: setattr(cls, attr, orig) if own
                          else delattr(cls, attr))

    def function(self, module, attr: str, wrapper_of: Callable,
                 *, everywhere: bool = True) -> None:
        """Wrap ``module.attr``; by default also each ``from`` import of it."""
        orig = getattr(module, attr)
        wrapped = wrapper_of(orig)
        mods = [module]
        if everywhere:
            mods = [m for m in list(sys.modules.values())
                    if getattr(m, "__name__", "").startswith("repro")
                    and getattr(m, attr, None) is orig]
        for mod in mods:
            setattr(mod, attr, wrapped)
            self._undo.append(lambda m=mod: setattr(m, attr, orig))

    def undo(self) -> None:
        while self._undo:
            self._undo.pop()()


def _hook_names() -> List[str]:
    from repro.mpi.interposition import DetectorProtocol

    return sorted(n for n in vars(DetectorProtocol) if n.startswith("on_"))


def install(tracer: Tracer) -> Patch:
    """Wrap each layer's public entry points (see README, per-layer table)."""
    import repro.core.forensics as forensics
    import repro.pipeline.shard as shard
    import repro.scenarios.score as score
    import repro.serve.client as client
    import repro.serve.scheduler as scheduler
    from repro.bst.flat import FlatIntervalStore
    from repro.bst.interval_tree import IntervalBST
    from repro.core import FlatDetector, OurDetector
    from repro.mpi import World
    from repro.obs.timeline import Timeline
    from repro.pipeline import engine
    from repro.pipeline.checkpoint import CheckpointStore
    from repro.pipeline.format import TraceReader, WireStream
    from repro.serve.cache import VerdictCache
    from repro.serve.journal import JobJournal

    t = tracer
    p = Patch()

    def call(name, hot=False, **kw):
        return lambda fn: _wrap_call(t, name, fn, hot=hot, **kw)

    def store_peak(tr, args, _result):
        tr.peak("bst.flat.peak_nodes", len(args[0]))

    def query_hit(tr, _args, result):
        if result:
            tr.count("bst.flat.query_hits")

    def ckpt_bytes(tr, _args, path):
        tr.count("pipeline.checkpoint.bytes_written", path.stat().st_size)

    def admitted(tr, _args, job):
        if job.cached:
            tr.count("serve.cache.admit_hits")
        else:
            tr.admitted[job.trace_path] = time.perf_counter()

    def queue_wait(tr, args):
        t0 = tr.admitted.pop(str(args[0]), None)
        if t0 is not None:
            tr.count("serve.scheduler.queue_wait_s",
                     time.perf_counter() - t0)

    p.method(TraceReader, "__iter__", lambda fn: _wrap_iter(
        t, "pipeline.format.decode", fn, count=lambda _e: 1))
    p.method(TraceReader, "iter_chunks", lambda fn: _wrap_iter(
        t, "pipeline.format.decode", fn, count=lambda c: len(c[0])))
    p.method(WireStream, "__iter__", lambda fn: _wrap_iter(
        t, "pipeline.format.wire_scan", fn))
    p.function(shard, "dispatch_batch", call("pipeline.shard.dispatch"))
    p.method(Timeline, "record_event_fanout", call("obs.timeline.record",
                                                   hot=True))
    p.method(Timeline, "record_event", call("obs.timeline.record", hot=True))
    p.method(FlatDetector, "ingest_batch", call("core.flatcore.ingest"))
    p.method(FlatDetector, "ingest_wire", call("core.flatcore.ingest"))
    p.method(FlatIntervalStore, "insert", call("bst.flat.insert", hot=True,
                                               post=store_peak))
    p.method(FlatIntervalStore, "remove", call("bst.flat.remove", hot=True))
    p.method(FlatIntervalStore, "find_overlapping", call(
        "bst.flat.query", hot=True, post=query_hit))
    p.function(forensics, "capture_forensics", call("core.forensics.capture"))
    p.method(CheckpointStore, "write", call("pipeline.checkpoint.write",
                                            post=ckpt_bytes))
    p.method(CheckpointStore, "load_latest", call("pipeline.checkpoint.load"))
    p.function(engine, "analyze_trace", call("pipeline.engine.analyze"))
    p.function(client, "submit_trace", call("serve.client.upload"))
    p.function(client, "poll_job", call("serve.client.poll"))
    # every HTTP exchange; outside upload and poll, the result fetch
    p.function(client, "request", call("serve.client.request"))
    p.method(scheduler.Scheduler, "submit_file", call(
        "serve.scheduler.admit", post=admitted))
    # the scheduler's own view of its analysis call (the engine span
    # nests inside it); queue wait = admission return -> this call
    p.function(scheduler, "analyze_trace", call(
        "serve.scheduler.analyze", pre=queue_wait), everywhere=False)
    p.method(JobJournal, "append", call("serve.journal.append"))
    p.method(VerdictCache, "get", call("serve.cache.get"))
    p.method(VerdictCache, "put", call("serve.cache.put"))
    p.method(World, "run", call("mpi.simulator.run"))
    # object core only: the flat core inherits some of these hooks
    is_object = (lambda args: type(args[0]) is OurDetector)
    for hook in _hook_names():
        p.method(OurDetector, hook, call("core.detector.hook", hot=True,
                                         only=is_object))
    for attr, name in (("insert", "bst.interval_tree.insert"),
                       ("remove", "bst.interval_tree.remove"),
                       ("find_overlapping", "bst.interval_tree.query")):
        p.method(IntervalBST, attr, call(name, hot=True))
    p.function(score, "score_corpus", call("scenarios.score.corpus"))
    p.function(score, "record_scenario", call("scenarios.score.record"))
    return p


def intern_size() -> int:
    from repro.intervals.intern import ACCUMS, SITES

    return len(SITES) + len(ACCUMS)


def layer_metrics(agg: dict) -> Dict[str, float]:
    """The per-layer metrics of one traced repetition."""
    st, c, pk = agg["stats"], agg["counts"], agg["peaks"]

    def n(name):
        return st.get(name, (0, 0.0, 0.0))[0]

    def tot(*names):
        return sum(st.get(x, (0, 0.0, 0.0))[1] for x in names)

    def slf(name):
        return st.get(name, (0, 0.0, 0.0))[2]

    queries = n("bst.flat.query")
    admits = n("serve.scheduler.admit")
    return {
        "pipeline.format.decode_s": tot("pipeline.format.decode"),
        "pipeline.format.events_decoded": c.get("pipeline.format.decode", 0),
        "pipeline.format.wire_scan_s": tot("pipeline.format.wire_scan"),
        "pipeline.shard.dispatch_s": tot("pipeline.shard.dispatch"),
        "pipeline.shard.dispatch_calls": n("pipeline.shard.dispatch"),
        "obs.timeline.record_s": tot("obs.timeline.record"),
        "obs.timeline.records": n("obs.timeline.record"),
        "core.flatcore.ingest_s": tot("core.flatcore.ingest"),
        "core.flatcore.self_s": slf("core.flatcore.ingest"),
        "bst.flat.insert_calls": n("bst.flat.insert"),
        "bst.flat.remove_calls": n("bst.flat.remove"),
        "bst.flat.query_calls": queries,
        "bst.flat.query_hit_ratio": (c.get("bst.flat.query_hits", 0)
                                     / queries if queries else 0.0),
        "bst.flat.s": tot("bst.flat.insert", "bst.flat.remove",
                          "bst.flat.query"),
        "bst.flat.peak_nodes": pk.get("bst.flat.peak_nodes", 0),
        "core.forensics.captures": n("core.forensics.capture"),
        "core.forensics.capture_s": tot("core.forensics.capture"),
        "pipeline.checkpoint.writes": n("pipeline.checkpoint.write"),
        "pipeline.checkpoint.write_s": tot("pipeline.checkpoint.write"),
        "pipeline.checkpoint.bytes_written":
            c.get("pipeline.checkpoint.bytes_written", 0),
        "pipeline.checkpoint.load_s": tot("pipeline.checkpoint.load"),
        "pipeline.engine.analyze_s": tot("pipeline.engine.analyze"),
        "serve.client.upload_s": tot("serve.client.upload"),
        "serve.client.poll_s": tot("serve.client.poll"),
        "serve.scheduler.admit_s": tot("serve.scheduler.admit"),
        "serve.scheduler.queue_wait_s":
            c.get("serve.scheduler.queue_wait_s", 0.0),
        "serve.scheduler.analyze_s": tot("serve.scheduler.analyze"),
        "serve.journal.appends": n("serve.journal.append"),
        "serve.journal.append_s": tot("serve.journal.append"),
        "serve.cache.get_s": tot("serve.cache.get"),
        "serve.cache.put_s": tot("serve.cache.put"),
        "serve.cache.hit_ratio": (c.get("serve.cache.admit_hits", 0) / admits
                                  if admits else 0.0),
        "mpi.simulator.self_s": slf("mpi.simulator.run"),
        "core.detector.hook_calls": n("core.detector.hook"),
        "core.detector.hook_s": tot("core.detector.hook"),
        "bst.interval_tree.query_calls": n("bst.interval_tree.query"),
        "bst.interval_tree.s": tot("bst.interval_tree.insert",
                                   "bst.interval_tree.remove",
                                   "bst.interval_tree.query"),
        "scenarios.score.record_s": tot("scenarios.score.record"),
        "scenarios.score.replay_s": (tot("scenarios.score.corpus")
                                     - tot("scenarios.score.record")),
    }


# -- traced workloads ---------------------------------------------------------


class TracedRun:
    """Interleaves untraced and traced reps of one operation."""

    def __init__(self, workload: str, seed: int, tally: Tally) -> None:
        self.workload = workload
        self.seed = seed
        self.tally = tally
        self.tracer = Tracer()
        self.untraced: List[float] = []
        #: what ``op`` returned on each untraced repetition
        self.untraced_out: List[object] = []
        self.traced: List[float] = []
        self.layers: List[Dict[str, float]] = []
        self.self_checks: List[dict] = []
        self.layer_self: List[Dict[str, float]] = []

    def rep(self, op: Callable[[], object], traced: bool) -> None:
        """One repetition of ``op``, timed; traced ones also aggregated."""
        try:
            if not traced:
                t0 = time.perf_counter()
                out = op()
                self.untraced.append(time.perf_counter() - t0)
                self.untraced_out.append(out)
                return
            tracer = self.tracer
            tracer.reset(len(self.traced) + 1)
            patch = install(tracer)
            try:
                t0 = time.perf_counter()
                with tracer.span("bench.op"):
                    op()
                wall = time.perf_counter() - t0
            finally:
                patch.undo()
        except Exception as exc:  # noqa: BLE001 - every failure is counted
            self.tally.check(False, f"{'traced' if traced else 'plain'} "
                                    f"rep: {type(exc).__name__}: {exc}")
            return
        agg = tracer.collect()
        self.traced.append(wall)
        self.layers.append(layer_metrics(agg))
        # the root span's own self time is whatever no layer span covers,
        # so it is left out: a missing or mis-nested wrapper shows here
        main = agg["main"]
        layers_self = sum(s[2] for name, s in main.items()
                          if name != "bench.op")
        self.layer_self.append({k: v[2] for k, v in agg["stats"].items()})
        check = {"wall_s": wall, "layers_self_s": layers_self,
                 "unattributed_s": main.get("bench.op", [0, 0, 0])[2],
                 "error": abs(wall - layers_self) / wall}
        self.self_checks.append(check)
        self.tally.invariant(
            check["error"] <= SELF_SUM_TOLERANCE,
            f"layer self times sum to {layers_self:.4f}s, wall {wall:.4f}s")

    def pairs(self, op: Callable[[], object], seconds: float, min_pairs: int,
              prepare: Callable[[], None] = lambda: None,
              max_pairs: Optional[int] = None) -> None:
        """Untraced/traced pairs within budget; who goes first alternates.

        ``prepare`` runs untimed before every repetition.
        """
        budget = Budget(seconds, min_pairs)
        while budget.more() and (max_pairs is None
                                 or budget.reps < max_pairs):
            t0 = time.perf_counter()
            first = len(self.traced) % 2 == 1
            for traced in (first, not first):
                prepare()
                self.rep(op, traced)
            budget.done(time.perf_counter() - t0)

    def result(self, intern_misses: int, events_per_s: List[float],
               ops_per_s: List[float],
               ab: Optional[Dict[str, float]] = None) -> dict:
        """Per-layer summaries; the rates are of the untraced reps."""
        if not (self.layers and self.untraced):
            return {}
        keys = self.layers[0].keys()
        per_layer = {k: summary([m[k] for m in self.layers]) for k in keys}
        per_layer["intervals.intern.misses"] = summary([intern_misses])
        per_layer["untraced_events_per_s"] = summary(events_per_s)
        per_layer["untraced_ops_per_s"] = summary(ops_per_s)
        for k in AB_RATIOS:
            per_layer[k] = summary([(ab or {}).get(k, 0.0)])
        per_layer["trace_overhead_pct"] = summary([100.0 * (
            statistics.median(self.traced)
            / statistics.median(self.untraced) - 1.0)])
        path = RESULTS / f"spans-{self.workload}-{self.seed}.jsonl"
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for name, start, end, parent, run, thread in self.tracer.spans():
                fh.write(json.dumps({"name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "run": run, "thread": thread}) + "\n")
        return {
            "per_layer": per_layer,
            "layer_detail": {
                "untraced_s": summary(self.untraced),
                "traced_s": summary(self.traced),
                "self_time_check": self.self_checks,
                "self_s_by_span": self.layer_self,
                "spans_file": str(path.relative_to(RESULTS.parent)),
            },
        }


def _analyze_op(path, expect: dict, tally: Tally, **kwargs) -> Callable:
    import repro.pipeline as pipeline

    def op():
        # looked up per call, so a traced rep reaches the wrapper
        res = pipeline.analyze_trace(path, **kwargs)
        got = verdict_digest(res.verdicts, res.forensics)
        tally.check(got == expect["digest"]
                    and res.events_total == expect["events"],
                    f"in-process analyze: digest {got[:12]}")
    return op


def _ab_ratio(a: Callable, b: Callable) -> float:
    """b's wall over a's, one interleaved pair."""
    t0 = time.perf_counter()
    a()
    t1 = time.perf_counter()
    b()
    return (time.perf_counter() - t1) / (t1 - t0)


def traced_analyze(manifest, seconds, sz, tally, workload, seed) -> dict:
    path = INPUTS / manifest["files"]["trace"]["path"]
    expect = manifest["oracle"]["trace"]
    run = TracedRun(workload, seed, tally)
    plain = _analyze_op(path, expect, tally)
    size0 = intern_size()
    plain()  # warm-up; a fresh process interns every site once
    misses = intern_size() - size0
    run.pairs(plain, seconds, max(sz.min_reps - 1, 1))

    # non-default modes against the default path, one pair each (README)
    ckpt = WORK / "ckpt"

    def with_ckpt():
        shutil.rmtree(ckpt, ignore_errors=True)
        _analyze_op(path, expect, tally, ckpt_dir=ckpt)()

    overhead = _ab_ratio(plain, with_ckpt)
    shutil.rmtree(ckpt, ignore_errors=True)
    cli = [sys.executable, "-m", "repro", "analyze", str(path), "--json"]
    out = WORK / "jobs2.json"

    def cli_wall(extra):
        wall, code, _ = run_child(cli + extra, stdout=out)
        ok = code == 0
        if ok:
            res = json.loads(out.read_bytes())
            ok = verdict_digest(res["verdicts"], res["forensics"]) == \
                expect["digest"]
        tally.check(ok, f"analyze {' '.join(extra)}: exit {code}")
        return wall

    serial = cli_wall([])
    speedup = {d: serial / cli_wall(["--jobs", "2", "--dispatch", d])
               for d in ("queue", "file")}
    events = expect["events"]
    return run.result(
        misses, [events / w for w in run.untraced],
        [1.0 / w for w in run.untraced], {
            "pipeline.checkpoint.overhead_x": overhead,
            "pipeline.engine.jobs2_speedup.queue": speedup["queue"],
            "pipeline.engine.jobs2_speedup.file": speedup["file"],
        })


class _ServeStack:
    """In-process scheduler + HTTP listener with the daemon's defaults."""

    def __init__(self, state) -> None:
        from repro.serve import ReproServer, Scheduler, ServeConfig

        shutil.rmtree(state, ignore_errors=True)
        config = ServeConfig(state_dir=str(state))
        self.sched = Scheduler(
            state, workers=config.workers, max_queue=config.max_queue,
            tenant_cap=config.tenant_cap, retries=config.retries,
            ckpt_every=config.ckpt_every, cache_max=config.cache_max)
        self.sched.recover()
        self.sched.start()
        self.httpd = ReproServer(config, self.sched)
        self.thread = threading.Thread(target=self.httpd.serve_forever,
                                       kwargs={"poll_interval": 0.1})
        self.thread.start()
        host, port = self.httpd.server_address[:2]
        self.base = f"http://{host}:{port}"

    def close(self) -> None:
        self.httpd.shutdown()
        self.thread.join(30.0)
        self.httpd.server_close()
        self.sched.drain(timeout=30.0)


def traced_serve(manifest, seconds, sz, tally, workload, seed) -> dict:
    stack = _ServeStack(WORK / "serve-inproc")
    run = TracedRun(workload, seed, tally)
    try:
        size0 = intern_size()
        for j in range(sz.warmup):
            serve_round(stack.base, manifest, f"warm-{j}", sz.serve_cached,
                        tally)
        misses = intern_size() - size0
        rounds = serve_rounds(manifest)
        keys = iter(rounds)  # every round needs a trace never seen

        def op():
            key = next(keys)
            return key, serve_round(stack.base, manifest, key,
                                    sz.serve_cached, tally)

        run.pairs(op, seconds, 1, max_pairs=len(rounds) // 2)
    finally:
        stack.close()
    events_per_s, ops_per_s = [], []
    for key, walls in run.untraced_out:
        events_per_s += [manifest["oracle"][key]["events"] / w
                         for w in walls["cold"]]
        ops = walls["cold"] + walls["resume"] + walls["cached"]
        if ops:
            ops_per_s.append(len(ops) / sum(ops))
    if not (events_per_s and ops_per_s):
        return {}
    return run.result(misses, events_per_s, ops_per_s)


def traced_live(manifest, seconds, sz, tally, workload, seed) -> dict:
    spec = manifest["spec"]
    run = TracedRun(workload, seed, tally)
    built: Dict[str, object] = {}

    def op():
        return live_op(built["inputs"], manifest, tally)

    def prepare():
        built["inputs"] = live_setup(spec)

    size0 = intern_size()
    prepare()
    op()  # warm-up
    misses = intern_size() - size0
    run.pairs(op, seconds, max(sz.min_reps - 1, 1), prepare=prepare)
    events = sum(manifest["oracle"][app]["events"]
                 for app in ("minivite", "cfd"))
    return run.result(
        misses, [events / apps_s for apps_s, _ in run.untraced_out],
        [spec["scenarios"] / score_s for _, score_s in run.untraced_out])


def run_traced(workload: str, manifest: dict, seconds: float, sz: Sizes,
               tally: Tally, seed: int) -> Optional[dict]:
    runner = {"minivite-race": traced_analyze, "cfd-clean": traced_analyze,
              "serve-grow": traced_serve, "live-sim": traced_live}[workload]
    return runner(manifest, seconds, sz, tally, workload, seed)
