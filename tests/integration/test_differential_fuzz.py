"""Differential fuzzing: random RMA programs, cross-detector oracles.

Hypothesis generates small random one-epoch MPI-RMA programs (puts,
gets, accumulates, instrumented loads/stores on RMA-visible memory) and
runs *all* detectors on the very same event stream.  The oracle
relations:

* **Our contribution == MC-CChecker** on the boolean verdict, for both
  cores (the shipped flat core and the object-core oracle): the
  post-mortem clock-based analysis has neither the lower-bound bug nor
  the order-insensitivity bug nor a stack blind spot, so on flush-free
  heap-only programs the two must agree exactly.
* **MUST-RMA implies ours**: on these programs MUST-RMA has no false
  -positive source (no flush in the grammar), only false-negative ones
  (shadow-cell eviction), so whenever it reports, ours must too.
* **Ours implies the legacy tool or a lower-bound miss**: the original
  RMA-Analyzer misses races only through its path-limited search.

Every run also re-checks the structural invariants of our detector's
BSTs (disjointness, AVL/augmentation consistency).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import FlatDetector, OurDetector, StridedDetector
from repro.detectors import McCChecker, MustRma, RmaAnalyzerLegacy
from repro.intervals import DebugInfo
from repro.mpi import BYTE, World
from repro.mpi.simulator import Buffer

WIN_BYTES = 32
NRANKS = 3


@dataclass(frozen=True)
class FuzzOp:
    kind: str  # put | get | acc | load | store
    target: int  # one-sided target / ignored for local
    disp: int
    count: int
    accum_op: str
    line: int


ops = st.builds(
    FuzzOp,
    st.sampled_from(["put", "get", "acc", "load", "store"]),
    st.integers(0, NRANKS - 1),
    st.integers(0, WIN_BYTES - 1),
    st.integers(1, 8),
    st.sampled_from(["sum", "max"]),
    st.integers(1, 5),
)

programs = st.lists(
    st.tuples(st.integers(0, NRANKS - 1), ops), min_size=1, max_size=12
)


def make_program(schedule: List):
    """One lock_all epoch executing the scheduled ops in global order."""

    def program(ctx):
        win = yield ctx.win_allocate("w", WIN_BYTES, BYTE)
        buf = ctx.alloc("buf", WIN_BYTES, BYTE, rma_hint=True)
        ctx.win_lock_all(win)
        yield ctx.barrier()
        for rank, op in schedule:
            if ctx.rank == rank:
                _execute(ctx, win, buf, op)
            yield  # strict global order, identical for every detector
        yield ctx.barrier()
        ctx.win_unlock_all(win)
        yield ctx.win_free(win)

    return program


def _execute(ctx, win, buf, op: FuzzOp) -> None:
    count = min(op.count, WIN_BYTES - op.disp)
    debug = DebugInfo("fuzz.c", op.line)
    if op.kind == "put":
        ctx.put(win, op.target, op.disp, buf, op.disp, count, debug=debug)
    elif op.kind == "get":
        ctx.get(win, op.target, op.disp, buf, op.disp, count, debug=debug)
    elif op.kind == "acc":
        ctx.accumulate(win, op.target, op.disp, buf, op.disp, count,
                       op=op.accum_op, debug=debug)
    elif op.kind == "load":
        winbuf = Buffer(win.region_of(ctx.rank), BYTE)
        ctx.load(winbuf, op.disp, count, debug=debug)
    else:
        winbuf = Buffer(win.region_of(ctx.rank), BYTE)
        ctx.store(winbuf, op.disp, 1, count, debug=debug)


def run_all(schedule):
    """Every detector on one run; ``ours`` holds both cores."""
    ours = (FlatDetector(), OurDetector())
    legacy = RmaAnalyzerLegacy()
    must = MustRma()
    mcc = McCChecker()
    World(NRANKS, [*ours, legacy, must, mcc]).run(make_program(schedule))
    return ours, legacy, must, mcc


def _acc(op: str) -> FuzzOp:
    """Accumulate ``op`` onto byte 0 of rank 2's window."""
    return FuzzOp("acc", 2, 0, 1, op, 1)


@given(programs)
@settings(max_examples=120, deadline=None)
def test_strided_extension_verdict_parity(schedule):
    """The §6(3) extension must never change a verdict."""
    plain = OurDetector()
    strided = StridedDetector()
    World(NRANKS, [plain, strided]).run(make_program(schedule))
    assert plain.race_detected == strided.race_detected, (
        f"plain={plain.reports[:2]} strided={strided.reports[:2]}"
    )


@given(programs)
@settings(max_examples=120, deadline=None)
# two same-op accumulates from different origins, then a different-op
# one: it races with the origin it does not share (the first two), with
# either (the third); all from one origin is ordered, hence safe (last)
@example([(0, _acc("max")), (2, _acc("max")), (2, _acc("sum"))])
@example([(0, _acc("max")), (1, _acc("max")), (1, _acc("sum"))])
@example([(0, _acc("max")), (2, _acc("max")), (0, _acc("sum"))])
@example([(0, _acc("max")), (0, _acc("max")), (0, _acc("sum"))])
def test_ours_agrees_with_postmortem_oracle(schedule):
    ours, _legacy, _must, mcc = run_all(schedule)
    for core in ours:
        assert core.race_detected == mcc.race_detected, (
            f"{type(core).__name__}={core.reports[:2]} "
            f"mcc={mcc.reports[:2]}"
        )


@given(programs)
@settings(max_examples=120, deadline=None)
def test_must_rma_never_outreports_ours_here(schedule):
    ours, _legacy, must, _mcc = run_all(schedule)
    if must.race_detected:
        assert all(core.race_detected for core in ours)


@given(programs)
@settings(max_examples=120, deadline=None)
def test_bst_invariants_survive_fuzzing(schedule):
    ours = OurDetector()
    world = World(NRANKS, [ours])
    # keep the window alive so the stores are inspectable: no win_free

    def program(ctx):
        win = yield ctx.win_allocate("w", WIN_BYTES, BYTE)
        buf = ctx.alloc("buf", WIN_BYTES, BYTE, rma_hint=True)
        ctx.win_lock_all(win)
        yield ctx.barrier()
        for rank, op in schedule:
            if ctx.rank == rank:
                _execute(ctx, win, buf, op)
            yield
        # inspect BEFORE the epoch closes (stores are live)
        if ctx.rank == 0:
            for r in range(ctx.size):
                bst = ours.bst_of(r, win.wid)
                if bst is not None and len(bst):
                    bst.check_invariants()
                    snap = bst.snapshot()
                    for a, b in zip(snap, snap[1:]):
                        assert not a.interval.overlaps(b.interval)
        yield ctx.barrier()
        ctx.win_unlock_all(win)
        yield ctx.win_free(win)

    world.run(program)


@given(programs)
@settings(max_examples=60, deadline=None)
def test_verdicts_deterministic(schedule):
    (ours_a, *a), (ours_b, *b) = run_all(schedule), run_all(schedule)
    for first, second in zip((*ours_a, *a), (*ours_b, *b)):
        assert first.reports_total == second.reports_total
