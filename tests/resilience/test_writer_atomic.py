"""Atomic trace finalize: a crashed recording never looks complete.

Writers stream to ``<path>.tmp`` and ``os.replace`` into place on a
clean close, so the final path either holds a complete, trailer-checked
trace or does not exist at all.  The :class:`WriterCrash` fault hook
simulates a recorder dying after any chunk flush or during finalize.
"""

import pytest

from repro.faultinject import SimulatedWriterCrash, WriterCrash
from repro.mpi.errors import TraceFormatError
from repro.pipeline import BinaryTraceWriter, TraceReader


@pytest.fixture(scope="module")
def events(mv_trace):
    return list(TraceReader(mv_trace))


def _tmp_of(path):
    return path.with_name(path.name + ".tmp")


def test_clean_close_is_atomic(tmp_path, events):
    path = tmp_path / "out.trace"
    writer = BinaryTraceWriter(path, nranks=4, events_per_chunk=100)
    for event in events[:300]:
        writer.write(event)
    # mid-recording: all bytes live in the temp file, none at the target
    assert not path.exists()
    assert _tmp_of(path).exists()
    writer.close()
    assert path.exists()
    assert not _tmp_of(path).exists()
    assert sum(1 for _ in TraceReader(path)) == 300


def test_abort_discards_the_recording(tmp_path, events):
    path = tmp_path / "out.trace"
    writer = BinaryTraceWriter(path, nranks=4)
    for event in events[:50]:
        writer.write(event)
    writer.abort()
    assert not path.exists()
    assert not _tmp_of(path).exists()


def test_exception_in_with_block_aborts(tmp_path, events):
    path = tmp_path / "out.trace"
    with pytest.raises(RuntimeError, match="app blew up"):
        with BinaryTraceWriter(path, nranks=4, events_per_chunk=10) as writer:
            for event in events[:100]:
                writer.write(event)
            raise RuntimeError("app blew up")
    assert not path.exists()
    assert not _tmp_of(path).exists()


def test_injected_crash_after_chunk_flush(tmp_path, events):
    path = tmp_path / "out.trace"
    crash = WriterCrash(after_chunks=2)
    with pytest.raises(SimulatedWriterCrash):
        with BinaryTraceWriter(path, nranks=4, events_per_chunk=50,
                               fault_hook=crash) as writer:
            for event in events[:500]:
                writer.write(event)
    assert crash.fired
    assert not path.exists()
    assert not _tmp_of(path).exists()


def test_injected_crash_during_finalize(tmp_path, events):
    """Dying in close() — after all chunks, before the rename — still
    never exposes the final path."""
    path = tmp_path / "out.trace"
    crash = WriterCrash(stage="close")
    with pytest.raises(SimulatedWriterCrash):
        with BinaryTraceWriter(path, nranks=4, events_per_chunk=50,
                               fault_hook=crash) as writer:
            for event in events[:200]:
                writer.write(event)
    assert not path.exists()


def test_aborted_recording_is_unreadable_not_half_readable(tmp_path, events):
    """The reader can never mistake an interrupted recording for a trace:
    the final path simply is not there."""
    path = tmp_path / "out.trace"
    with pytest.raises(SimulatedWriterCrash):
        with BinaryTraceWriter(path, nranks=4, events_per_chunk=20,
                               fault_hook=WriterCrash(after_chunks=1)) as w:
            for event in events[:100]:
                w.write(event)
    with pytest.raises(TraceFormatError):
        TraceReader(path)
