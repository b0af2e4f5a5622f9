"""Flat-store footprint, pinned as counts: bytes per row and tail-table size.

A store keeps each distinct record tail (everything but the bounds)
once, so a row costs its slots in three typed arrays: two 8-byte
bounds and a 4-byte tail id.  These tests pin that with allocation
counts, not timings, so they hold on any machine.
"""

import tracemalloc

from repro import obs
from repro.bst.flat import FlatIntervalStore
from repro.core import FlatDetector
from repro.intervals import AccessType, DebugInfo, Interval, MemoryAccess
from repro.intervals.intern import SITES

#: rows in the footprint measurement, and the bytes one may cost (a
#: 9-tuple per row measured 271 here; one tail id per row in the AVL
#: columns, 159; sorted typed-array blocks, 21.8)
ROWS = 10_000
MAX_BYTES_PER_ROW = 25

#: bounds past 2**30, as 64-bit process addresses are
BASE = 0x7F00_0000_0000


def test_bytes_per_row_with_shared_tails():
    sites = [SITES.id_of(DebugInfo("footprint.c", line))
             for line in range(8)]
    write = AccessType.RMA_WRITE
    store = FlatIntervalStore()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(ROWS):
            # the record is built here, as the ingest path builds it
            lo = BASE + 64 * i
            store.insert((lo, lo + 8, write, sites[i % 8], 1, 0, 0, 0, None))
        used = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(store) == ROWS and len(store._tails) == 8
    assert used / ROWS <= MAX_BYTES_PER_ROW, f"{used / ROWS:.0f} B/row"


def test_tail_table_bounded_by_live_rows_under_flushes():
    """Every round re-writes the same 64 slots under a new flush
    generation, so each round's tails replace the last round's: 200
    distinct tails over the run, never more than 2 * 64 + 8 at once."""
    det = FlatDetector()
    det.race_check = False
    reg = obs.active()
    debug = DebugInfo("flush.c", 7)
    slots = 64
    rounds = 200
    store = None
    for gen in range(rounds):
        for slot in range(slots):
            lo = BASE + 64 * slot
            det._ingest(0, 0, MemoryAccess(
                Interval(lo, lo + 8), AccessType.RMA_WRITE, debug, 1, 0,
                gen), reg)
            store = det._store(0, 0)
            assert len(store._tails) <= 2 * len(store) + 8
    assert len(store) == slots
    assert {r[6] for r in store} == {rounds - 1}
    store.check_invariants()
