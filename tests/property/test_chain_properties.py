"""Property-based contracts of the per-chunk rolling hash chain.

The chain is what lets incremental analysis *prove* rather than assume:
equal value at chunk k ⇔ byte-identical first k chunks.  For arbitrary
event counts, chunk sizes, growth, tears, and single-byte mutations:

* growing a trace through ``open_append`` always classifies as
  ``extension`` against its past self, at exactly the old chunk count,
* the reverse comparison is ``truncated``; a file is ``identical`` only
  to itself,
* one flipped payload byte in chunk *c* — crc and stored digests
  repaired, so the file is internally self-consistent — diverges at
  exactly chunk *c*, never earlier, never later,
* any torn tail reads (tail mode) and chains as a strict prefix.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faultinject import chunk_index, rewrite_prefix
from repro.intervals import AccessType, DebugInfo, Interval, MemoryAccess
from repro.mpi.memory import RegionInfo, RegionKind
from repro.mpi.trace import LocalEvent
from repro.pipeline import (
    BinaryTraceWriter,
    TraceReader,
    compare_chain,
    trace_chain,
)


def _event(seq: int) -> LocalEvent:
    access = MemoryAccess(Interval(seq * 8, seq * 8 + 8),
                          AccessType.LOCAL_READ,
                          DebugInfo("./prop.c", 1 + seq % 7), seq % 4,
                          0, 1, None, None)
    return LocalEvent(seq, seq % 4, access, RegionInfo(RegionKind.HEAP, True))


def _write(path, n, *, per_chunk):
    with BinaryTraceWriter(path, nranks=4,
                           events_per_chunk=per_chunk) as writer:
        for seq in range(1, n + 1):
            writer.write(_event(seq))
    return path


#: small on purpose: every example writes real files; the interesting
#: structure is chunk boundaries, not volume
_N = st.integers(min_value=1, max_value=40)
_GROW = st.integers(min_value=1, max_value=25)
_PER_CHUNK = st.integers(min_value=1, max_value=9)


@settings(max_examples=75)
@given(n=_N, grow=_GROW, per_chunk=_PER_CHUNK)
def test_append_only_growth_is_an_extension(tmp_path_factory, n, grow,
                                            per_chunk):
    path = tmp_path_factory.mktemp("chain") / "t.trace"
    _write(path, n, per_chunk=per_chunk)
    old = trace_chain(path)
    writer = BinaryTraceWriter.open_append(path)
    for seq in range(n + 1, n + grow + 1):
        writer.write(_event(seq))
    writer.close()
    new = trace_chain(path)

    rel = compare_chain(old, new)
    if len(new["chunks"]) == len(old["chunks"]):
        # growth that only refills the final (short) chunk boundary
        # cannot happen: open_append rewrites nothing, so chunk count
        # strictly grows whenever events were appended
        raise AssertionError("append added events but no chunks")
    assert rel == {"relation": "extension", "common": len(old["chunks"]),
                   "diverged_at": None}
    assert new["chunks"][:len(old["chunks"])] == old["chunks"]
    assert compare_chain(new, old)["relation"] == "truncated"
    assert compare_chain(new, new)["relation"] == "identical"
    if n % per_chunk == 0:
        # growth from a chunk boundary is byte-identical to writing
        # straight through (a short mid-file chunk is kept as-is
        # otherwise — append-only means never rewriting it)
        straight = _write(tmp_path_factory.mktemp("chain") / "s.trace",
                          n + grow, per_chunk=per_chunk)
        assert path.read_bytes() == straight.read_bytes()


@settings(max_examples=75)
@given(n=st.integers(min_value=2, max_value=40), per_chunk=_PER_CHUNK,
       pick=st.integers(min_value=0, max_value=10 ** 6),
       seed=st.integers(min_value=0, max_value=10 ** 6))
def test_single_byte_mutation_diverges_at_its_chunk(tmp_path_factory, n,
                                                    per_chunk, pick, seed):
    path = tmp_path_factory.mktemp("chain") / "t.trace"
    _write(path, n, per_chunk=per_chunk)
    clean = trace_chain(path)
    nchunks = len(clean["chunks"])
    target = 1 + pick % nchunks

    rewrite_prefix(path, chunk=target, count=1, seed=seed)
    # internally self-consistent: trace_chain checks every stored
    # digest against its recomputation and raises on a mismatch
    mutated = trace_chain(path)
    assert len(mutated["chunks"]) == nchunks

    rel = compare_chain(clean, mutated)
    assert rel["relation"] == "diverged"
    assert rel["diverged_at"] == target
    assert rel["common"] == target - 1
    assert mutated["chunks"][:target - 1] == clean["chunks"][:target - 1]
    assert all(m != c for m, c in zip(mutated["chunks"][target - 1:],
                                      clean["chunks"][target - 1:]))


@settings(max_examples=75)
@given(n=st.integers(min_value=2, max_value=40), per_chunk=_PER_CHUNK,
       cut_back=st.integers(min_value=1, max_value=10 ** 6))
def test_any_torn_tail_reads_as_a_strict_prefix(tmp_path_factory, n,
                                                per_chunk, cut_back):
    path = tmp_path_factory.mktemp("chain") / "t.trace"
    _write(path, n, per_chunk=per_chunk)
    whole = trace_chain(path)
    all_events = [e.seq for e in TraceReader(path)]
    first_payload = chunk_index(path)[0].payload_pos

    raw = path.read_bytes()
    # tear anywhere strictly inside the file but past chunk 1's start,
    # so at least the framing of the file head survives
    cut = first_payload + (cut_back % (len(raw) - first_payload))
    path.write_bytes(raw[:cut])

    torn = trace_chain(path)
    k = len(torn["chunks"])
    assert torn["chunks"] == whole["chunks"][:k]
    assert not torn["complete"]

    reader = TraceReader(path)
    reader.tail = True
    got = [e.seq for e in reader]
    # whole chunks decode, the torn one does not: event count matches
    # the chain walk exactly
    assert got == all_events[:torn["events"][k - 1] if k else 0]
    assert reader.tail_pending and not reader.complete
