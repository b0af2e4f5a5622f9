"""Seeded composition of the labeled scenario corpus.

:func:`compose_scenario` deterministically maps ``(seed, index)`` to one
labeled scenario: the axis combination is chosen by cycling the fixed
cartesian product ``EPOCH_STYLES x ACCESS_SHAPES x RACE_KINDS`` (kind
cycles fastest, so every third scenario is a known-negative control) and
all remaining free choices — rank count, geometry, operation pair,
control variant — are drawn from a ``random.Random`` seeded with
``f"{seed}:{index}"``.  No global state, no set/dict iteration: the same
seed always produces the byte-identical corpus.

The negative controls are the interesting half of the corpus.  Beyond
plain disjoint accesses they include the defect classes that separate
the detectors under comparison:

* ``ord`` — a local access *followed by* a one-sided operation on the
  same bytes of the same process (safe by program order, §5.2); the
  legacy RMA-Analyzer's order-insensitive predicate flags it;
* ``excl`` — two conflicting puts serialized by exclusive
  ``MPI_Win_lock`` epochs; tools without a lock model flag it;
* ``atomic`` — two same-op ``MPI_Accumulate`` calls on the same range
  (element-wise atomic, §2.1);
* ``readshare`` — two puts reading one shared origin buffer;
* ``gap`` — a contiguous access threaded through the holes of a vector
  derived-datatype footprint (byte-precision stress).
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from typing import List, Sequence, Tuple

from .. import obs
from .model import (
    ACCESS_SHAPES,
    Action,
    EPOCH_STYLES,
    RACE_KINDS,
    RaceLabels,
    Scenario,
    SiteOp,
)

__all__ = [
    "CORPUS_SCHEMA",
    "compose_scenario",
    "corpus_to_jsonl",
    "generate_corpus",
    "load_corpus",
]

CORPUS_SCHEMA = "repro-scenarios-v1"
WIN_BYTES = 128
BUF_BYTES = 128
LINE0, LINE1 = 10, 20
_PRIV_DISP = (64, 96)  # window ranges private to op 0 / op 1
_PRIV_OFF = (64, 96)  # buffer ranges private to op 0 / op 1

#: fixed axis iteration order (kind cycles fastest)
_COMBOS: Tuple[Tuple[str, str, str], ...] = tuple(
    itertools.product(EPOCH_STYLES, ACCESS_SHAPES, RACE_KINDS)
)

_MPI_NAME = {
    "put": "MPI_Put", "get": "MPI_Get", "accumulate": "MPI_Accumulate",
    "put_vector": "MPI_Put", "get_vector": "MPI_Get",
    "load": "LOAD", "store": "STORE",
}
#: ACCESS_SET entry of an op at the *window* conflict site
_WIN_SITE = {
    "put": "rma write", "accumulate": "rma write", "put_vector": "rma write",
    "get": "rma read", "get_vector": "rma read",
    "load": "load", "store": "store",
}
#: ACCESS_SET entry of an op at the *origin buffer* conflict site
_BUF_SITE = {
    "get": "rma write", "get_vector": "rma write",
    "put": "rma read", "put_vector": "rma read", "accumulate": "rma read",
    "load": "load", "store": "store",
}

_CONSISTENCY = {
    "fence": ("MPI_Win_fence",),
    "lock": ("MPI_Win_lock", "MPI_Win_unlock"),
    "lock_all": ("MPI_Win_lock_all", "MPI_Win_unlock_all"),
    "pscw": ("MPI_Win_post", "MPI_Win_start",
             "MPI_Win_complete", "MPI_Win_wait"),
}

_REMOTE_PAIRS = (("put", "put"), ("put", "get"), ("get", "put"),
                 ("accumulate", "put"), ("put", "accumulate"))
_LOCAL_PAIRS = (("get", "get"), ("get", "put"), ("put", "get"))
_HYBRID_REMOTE_PAIRS = (("put", "store"), ("put", "load"), ("get", "store"))
_HYBRID_LOCAL_PAIRS = (("get", "load"), ("get", "store"), ("put", "store"))
_ORD_PAIRS = (("load", "get"), ("store", "put"), ("store", "get"))


def _rma(kind: str, target: int, disp: int, off: int, count: int,
         accum_op: str = None) -> Action:
    return Action(kind=kind, off=off, count=count, target=target, disp=disp,
                  accum_op=accum_op)


def _vec(kind: str, target: int, disp: int, off: int,
         blocks: int, blocklen: int, stride: int) -> Action:
    return Action(kind=kind, off=off, count=blocks * blocklen, target=target,
                  disp=disp, blocks=blocks, blocklen=blocklen, stride=stride)


def _loc(kind: str, off: int, count: int, space: str = "buf") -> Action:
    return Action(kind=kind, off=off, count=count, space=space)


def compose_scenario(seed: int, index: int) -> Scenario:
    """Deterministically compose labeled scenario ``index`` of ``seed``."""
    style, shape, kind = _COMBOS[index % len(_COMBOS)]
    rng = random.Random(f"{seed}:{index}")
    nranks = rng.randint(2, 8)
    origin, target = 0, 1
    origin2 = 2 if nranks >= 3 else target  # 2 ranks: self-targeting RMA
    count = rng.choice((4, 8))
    d0 = rng.choice((0, 8, 16)) if shape == "strided" \
        else rng.choice((0, 2, 8, 18, 24))
    o0 = rng.choice((0, 8, 16))
    L, S = count // 2, count  # vector block length / stride

    variant = "racy"
    excl = False
    if kind == "remote":
        if shape == "hybrid":
            k0, k1 = rng.choice(_HYBRID_REMOTE_PAIRS)
            a0 = (_rma(k0, target, d0, _PRIV_OFF[0], count),)
            a1 = (_loc(k1, d0, count, space="win"),)
            callers = (origin, target)
            sites = (_WIN_SITE[k0], _WIN_SITE[k1])
        elif shape == "strided":
            k0, k1 = rng.choice((("put_vector", "put"), ("put_vector", "get"),
                                 ("get_vector", "put")))
            a0 = (_vec(k0, target, d0, _PRIV_OFF[0], 3, L, S),)
            a1 = (_rma(k1, target, d0 + S, _PRIV_OFF[1], L),)
            callers = (origin, origin2)
            sites = (_WIN_SITE[k0], _WIN_SITE[k1])
        else:  # adjacent / overlapping
            k0, k1 = rng.choice(_REMOTE_PAIRS)
            d1 = d0 if shape == "adjacent" else d0 + count // 2
            a0 = (_rma(k0, target, d0, _PRIV_OFF[0], count,
                       "sum" if k0 == "accumulate" else None),)
            a1 = (_rma(k1, target, d1, _PRIV_OFF[1], count,
                       "sum" if k1 == "accumulate" else None),)
            callers = (origin, origin2)
            sites = (_WIN_SITE[k0], _WIN_SITE[k1])
    elif kind == "local":
        callers = (origin, origin)
        if shape == "hybrid":
            k0, k1 = rng.choice(_HYBRID_LOCAL_PAIRS)
            a0 = (_rma(k0, target, _PRIV_DISP[0], o0, count),)
            a1 = (_loc(k1, o0, count),)
            sites = (_BUF_SITE[k0], _BUF_SITE[k1])
        elif shape == "strided":
            k0 = "get"
            k1 = rng.choice(("get", "put"))
            # a strided local footprint: one loop of gets whose buffer
            # offsets stride while the window side stays contiguous
            a0 = tuple(_rma("get", target, d0 + b * L, o0 + b * S, L)
                       for b in range(3))
            a1 = (_rma(k1, target, _PRIV_DISP[1], o0 + S, L),)
            sites = (_BUF_SITE[k0], _BUF_SITE[k1])
        else:  # adjacent / overlapping
            k0, k1 = rng.choice(_LOCAL_PAIRS)
            o1 = o0 if shape == "adjacent" else o0 + count // 2
            a0 = (_rma(k0, target, _PRIV_DISP[0], o0, count),)
            a1 = (_rma(k1, target, _PRIV_DISP[1], o1, count),)
            sites = (_BUF_SITE[k0], _BUF_SITE[k1])
    else:  # known-negative controls
        if shape == "hybrid":
            variant = rng.choice(("ord", "ord", "disjoint"))
            if variant == "ord":
                k0, k1 = rng.choice(_ORD_PAIRS)
                a0 = (_loc(k0, o0, count),)
                a1 = (_rma(k1, target, _PRIV_DISP[1], o0, count),)
                callers = (origin, origin)
                sites = (_BUF_SITE[k0], _BUF_SITE[k1])
            else:
                k0, k1 = "put", "store"
                a0 = (_rma(k0, target, d0, _PRIV_OFF[0], count),)
                a1 = (_loc(k1, d0 + count, count, space="win"),)
                callers = (origin, target)
                sites = (_WIN_SITE[k0], _WIN_SITE[k1])
        elif shape == "strided":
            variant = "gap"
            k0, k1 = "put_vector", rng.choice(("put", "get"))
            a0 = (_vec(k0, target, d0, _PRIV_OFF[0], 3, L, S),)
            a1 = (_rma(k1, target, d0 + L, _PRIV_OFF[1], S - L),)
            callers = (origin, origin2)
            sites = (_WIN_SITE[k0], _WIN_SITE[k1])
        else:  # adjacent / overlapping
            options = ["disjoint", "atomic", "readshare"]
            if style == "lock":
                options.append("excl")
            variant = rng.choice(options)
            if variant == "atomic":
                k0 = k1 = "accumulate"
                a0 = (_rma(k0, target, d0, _PRIV_OFF[0], count, "sum"),)
                a1 = (_rma(k1, target, d0, _PRIV_OFF[1], count, "sum"),)
                callers = (origin, origin2)
                sites = (_WIN_SITE[k0], _WIN_SITE[k1])
            elif variant == "readshare":
                k0 = k1 = "put"
                a0 = (_rma(k0, target, _PRIV_DISP[0], o0, count),)
                a1 = (_rma(k1, target, _PRIV_DISP[1], o0, count),)
                callers = (origin, origin)
                sites = (_BUF_SITE[k0], _BUF_SITE[k1])
            elif variant == "excl":
                k0 = k1 = "put"
                excl = True
                a0 = (_rma(k0, target, d0, _PRIV_OFF[0], count),)
                a1 = (_rma(k1, target, d0, _PRIV_OFF[1], count),)
                callers = (origin, origin2)
                sites = (_WIN_SITE[k0], _WIN_SITE[k1])
            else:  # disjoint: touching blocks (adjacent) or a gap
                k0, k1 = rng.choice(_REMOTE_PAIRS)
                d1 = d0 + count if shape == "adjacent" else d0 + count + 8
                a0 = (_rma(k0, target, d0, _PRIV_OFF[0], count,
                           "sum" if k0 == "accumulate" else None),)
                a1 = (_rma(k1, target, d1, _PRIV_OFF[1], count,
                           "sum" if k1 == "accumulate" else None),)
                callers = (origin, origin2)
                sites = (_WIN_SITE[k0], _WIN_SITE[k1])

    name = f"s{index:04d}_{style}_{shape}_{kind}_{variant}"
    file = f"{name}.c"
    op0 = SiteOp(callers[0], LINE0, _MPI_NAME[k0], a0, excl)
    op1 = SiteOp(callers[1], LINE1, _MPI_NAME[k1], a1, excl)
    racy = kind != "none"
    race_pair = (
        (f"{op0.mpi_name}@{file}:{LINE0}", f"{op1.mpi_name}@{file}:{LINE1}")
        if racy else ()
    )
    consistency = (
        ("MPI_Win_lock(MPI_LOCK_EXCLUSIVE)", "MPI_Win_unlock")
        if variant == "excl" else _CONSISTENCY[style]
    )
    sync = ("MPI_Win_allocate", "MPI_Win_free")
    desc = (
        f"{shape} {kind} conflict under {style}: "
        f"{op0.mpi_name} vs {op1.mpi_name}"
        if racy else
        f"race-free {variant} control under {style}: "
        f"{op0.mpi_name} vs {op1.mpi_name}"
    )
    labels = RaceLabels(
        race_kind=kind, access_set=sites, race_pair=race_pair,
        consistency_calls=consistency, sync_calls=sync, nprocs=nranks,
        abort_location=f"{file}:{LINE1}" if racy else "",
        description=desc,
    )
    return Scenario(
        name=name, index=index, seed=seed, epoch_style=style,
        access_shape=shape, race_kind=kind, variant=variant, nranks=nranks,
        win_bytes=WIN_BYTES, buf_bytes=BUF_BYTES, ops=(op0, op1),
        labels=labels,
    )


def generate_corpus(seed: int, n: int) -> List[Scenario]:
    """The first ``n`` scenarios of ``seed``, in index order."""
    out = [compose_scenario(seed, i) for i in range(n)]
    # one registry add per category (first-seen order), not per scenario
    for category, count in Counter(sc.category for sc in out).items():
        obs.counter("scenarios.generated", category=category).add(count)
    return out


def corpus_to_jsonl(scenarios: Sequence[Scenario]) -> str:
    """Canonical JSONL encoding: one scenario per line, sorted keys."""
    return "".join(sc.to_json() + "\n" for sc in scenarios)


def load_corpus(path) -> List[Scenario]:
    """Read a corpus written by ``repro scenarios generate``."""
    out: List[Scenario] = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                out.append(Scenario.from_json(line))
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(
                    f"{path}:{lineno}: not a {CORPUS_SCHEMA} scenario "
                    f"record ({exc})"
                ) from exc
    return out
