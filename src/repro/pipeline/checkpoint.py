"""Crash-consistent checkpoints of in-flight analysis state.

The paper's detector state (the per-window BST) grows with dynamic
accesses; on a long trace, losing the run to a crash, a deadline or an
OOM kill costs re-analysis *from byte zero*.  This
module bounds that cost: at chunk boundaries the analysis serializes its
detector state (structure-preserving tree snapshots, see
:meth:`repro.detectors.base.Detector.snapshot`), its obs registry and
timeline rings, and the trace cursor of the last fully-applied chunk
into a ``repro-ckpt-v1`` file, so recovery replays only the events since
the newest checkpoint.

Format (one file per checkpoint, little-endian)::

    8s  magic    "REPROCK1"
    u32 header length
    ...  JSON header: {"schema", "lane", "seq", "meta": {...}}
    u32 payload length
    u32 payload crc32
    ...  pickled state payload

The header is JSON so validity and provenance checks never unpickle an
untrusted blob; the payload crc turns a torn write into a detected —
quarantined — checkpoint rather than silent state corruption.  Files are
written with the same atomic pattern as trace finalize (``<name>.tmp`` +
``os.replace``), so a crash mid-write never shadows the previous good
checkpoint.  The payload is pickled straight into the file, its length
and crc32 counted on the way and patched in before the fsync, so a
write never holds the whole payload in memory; the bytes are those of
``pickle.dumps(state, 4)``.

A :class:`CheckpointStore` manages the ``serial-<seq>.ckpt`` files of a
checkpoint directory (``serial`` names the one analysis lane, in file
names and headers alike): monotonically numbered files, newest-first
recovery with corrupt files renamed to ``*.bad`` (and reported —
falling back silently would make "resumed" claims a lie), and pruning
of superseded generations.
"""

from __future__ import annotations

import json
import os
import pickle
import struct
import zlib
from pathlib import Path
from typing import List, Optional, Tuple, Union

from .. import obs
from .._fields import Fields
from ..mpi.errors import (CheckpointError, TraceChainMismatch,
                          TraceDivergedError)
from .chain import trace_chain

__all__ = [
    "CKPT_MAGIC",
    "CKPT_SCHEMA",
    "CheckpointError",
    "CheckpointPlan",
    "CheckpointStore",
    "TraceDivergedError",
    "add_write_hook",
    "checkpoint_due",
    "current_rss_mb",
    "drain_requested",
    "install_drain_event",
    "remove_write_hook",
    "restore_registry",
    "run_meta",
    "run_state",
    "snapshot_cost",
    "verify_resume_trace",
]

CKPT_MAGIC = b"REPROCK1"
CKPT_SCHEMA = "repro-ckpt-v1"

_U32 = struct.Struct("<I")

#: pickle protocol 4 reads back on every supported interpreter
_PICKLE_PROTO = 4


# -- placement ----------------------------------------------------------------
#
# Where an analysis checkpoints is decided by one amortized rule, in units of
# analysis work: at a chunk boundary, checkpoint once the events applied
# since the last checkpoint reach CKPT_AMORTIZE times the modelled cost
# of the next snapshot.  Each placed snapshot is then paid for by at
# least CKPT_AMORTIZE times its own cost in analysis, so placed
# snapshots take at most 1/CKPT_AMORTIZE (2.5%) of analysis work however
# the state grows.  The final checkpoint of a finished run comes on
# top; the total stays within 5% once the run's analysis is 40 times
# the final snapshot's cost.  The inputs are event counts and state
# size, never time, so a seeded fault plan stops at the same checkpoint
# on every run.  The costs were measured on the 36,895-event miniVite
# trace on a 2-core container (DESIGN.md section 11; three fits, the
# median of each): analysis ~3.2 us an event; one checkpoint of the
# block store ~1.5 ms fixed (detector and timeline snapshots, pickle,
# write, fsync) plus ~0.11 us per live store row (its three typed
# arrays saved, pickled and written, 20 bytes a row).  With these
# costs K = 25 would also stay within 5% (3.9-4.1% measured inside the
# run), but it places two mid-trace checkpoints on the 73,755-event
# trace, where the placement tests expect one; K = 40 places one there
# and pays 2.3-2.5%.

#: fixed cost of one checkpoint, in events of analysis
CKPT_FIXED_EVENTS = 500
#: cost of one live store row in a checkpoint, in events of analysis
CKPT_ROW_EVENTS = 0.035
#: analysis work between checkpoints, in multiples of a snapshot's cost
CKPT_AMORTIZE = 40


def snapshot_cost(rows: int) -> float:
    """Modelled cost of one checkpoint of ``rows`` live rows, in events."""
    return CKPT_FIXED_EVENTS + CKPT_ROW_EVENTS * rows


def checkpoint_due(events_since: int, rows: int) -> bool:
    """The amortized rule: is a checkpoint due at this chunk boundary?"""
    return events_since >= CKPT_AMORTIZE * snapshot_cost(rows)


class CheckpointPlan(Fields, frozen=True):
    """Everything the chunk loop needs to checkpoint and guard itself.

    ``every`` pins a fixed cadence of that many chunks; ``None`` places
    checkpoints by :func:`checkpoint_due`.  ``deadline_at`` is an
    *absolute* ``time.time()`` value, computed once when the analysis
    starts.
    """

    _fields = ("dir", "every", "deadline_at", "max_rss_mb", "resume")

    def __init__(self, dir: str, every: Optional[int] = None,
                 deadline_at: Optional[float] = None,
                 max_rss_mb: Optional[int] = None,
                 resume: bool = False) -> None:
        set_ = object.__setattr__
        set_(self, "dir", dir)
        set_(self, "every", every)
        set_(self, "deadline_at", deadline_at)
        set_(self, "max_rss_mb", max_rss_mb)
        set_(self, "resume", resume)

    def due(self, chunks_since: int, events_since: int, rows: int) -> bool:
        """Checkpoint at this chunk boundary?"""
        if self.every is not None:
            return chunks_since >= self.every
        return checkpoint_due(events_since, rows)


_rss_unavailable_warned = False


#: current resident set of this process (Linux); tests point it elsewhere
_STATM = "/proc/self/statm"


def current_rss_mb() -> Optional[float]:
    """Resident set size of this process right now, in MiB.

    Read from ``/proc/self/statm`` (resident pages).  Where that file
    is unreadable, fall back to ``ru_maxrss``, the lifetime peak
    (kibibytes on Linux, bytes on macOS) — a long-lived daemon that
    was once over budget then reads as over budget for good, which is
    why the current value comes first.  Module-level indirection on
    purpose: tests monkeypatch this to drive the memory guard
    deterministically.

    With neither probe working this returns ``None`` — callers treat
    that as "guard unavailable" and keep analyzing (with a one-line
    warning, once per process) rather than dying on a telemetry read.
    """
    global _rss_unavailable_warned
    import sys

    try:
        with open(_STATM, "rb") as fh:
            pages = int(fh.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE") / (1024.0 * 1024.0)
    except (OSError, ValueError, IndexError):
        pass
    try:
        import resource

        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    except (ImportError, OSError, ValueError):
        if not _rss_unavailable_warned:
            _rss_unavailable_warned = True
            import warnings

            warnings.warn(
                "RSS probe unavailable on this platform; the "
                "--max-rss-mb memory guard is disabled for this run",
                RuntimeWarning, stacklevel=2,
            )
        return None
    if sys.platform == "darwin":
        return peak / (1024.0 * 1024.0)
    return peak / 1024.0


# -- service hooks ------------------------------------------------------------
#
# ``repro serve`` runs analyses on worker threads inside one long-lived
# process.  Two tiny, optional hook points let the daemon cooperate with
# the engine without the engine knowing about the daemon:
#
# * a *drain event*: when set (SIGTERM drain), every checkpointed serial
#   analysis stops at its next chunk boundary exactly like a deadline —
#   checkpoint written, ``partial`` result, resumable;
# * *write hooks*: called after each checkpoint file lands on disk.
#   The chaos injectors use this to kill or stall the daemon at a
#   deterministic point ("after the job's 2nd checkpoint"), which is
#   what makes the crash-recovery certification reproducible.

_drain_event = None
_write_hooks: List = []


def install_drain_event(event) -> None:
    """Install (or clear, with ``None``) the process drain event."""
    global _drain_event
    _drain_event = event


def drain_requested() -> bool:
    """True when a drain event is installed and set."""
    return _drain_event is not None and _drain_event.is_set()


def add_write_hook(hook) -> None:
    """Register ``hook(lane, seq, path)`` to run after checkpoint writes."""
    _write_hooks.append(hook)


def remove_write_hook(hook) -> None:
    try:
        _write_hooks.remove(hook)
    except ValueError:
        pass


class _CrcSink:
    """Pickle target that writes through to a file, counting length + crc32."""

    __slots__ = ("_write", "nbytes", "crc")

    def __init__(self, fh) -> None:
        self._write = fh.write
        self.nbytes = 0
        self.crc = 0

    def write(self, data) -> int:
        self.nbytes += len(data)
        self.crc = zlib.crc32(data, self.crc)
        return self._write(data)


class CheckpointStore:
    """The analysis lane's numbered checkpoint files in a directory."""

    #: the one lane an analysis writes, in file names and headers
    lane = "serial"

    def __init__(self, directory: Union[str, Path]) -> None:
        self.dir = Path(directory)
        self.dir.mkdir(parents=True, exist_ok=True)
        #: files found corrupt/truncated during recovery, newest first
        self.quarantined: List[str] = []

    # -- naming ---------------------------------------------------------------

    def _path(self, seq: int) -> Path:
        return self.dir / f"{self.lane}-{seq:08d}.ckpt"

    def _existing(self) -> List[Tuple[int, Path]]:
        out = []
        prefix = self.lane + "-"
        for p in self.dir.glob(f"{self.lane}-*.ckpt"):
            stem = p.name[len(prefix):-len(".ckpt")]
            if stem.isdigit():
                out.append((int(stem), p))
        out.sort()
        return out

    def next_seq(self) -> int:
        existing = self._existing()
        return existing[-1][0] + 1 if existing else 1

    # -- writing --------------------------------------------------------------

    def write(self, meta: dict, state: dict) -> Path:
        """Atomically persist one checkpoint; returns its path.

        ``meta`` must be JSON-able (it lands in the header and is
        checked *before* any unpickling on recovery); ``state`` is
        pickled, so it may carry live detector snapshots.
        """
        seq = self.next_seq()
        header = {"schema": CKPT_SCHEMA, "lane": self.lane, "seq": seq,
                  "meta": meta}
        header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
        path = self._path(seq)
        tmp = path.with_suffix(".tmp")
        try:
            with open(tmp, "wb") as fh:
                fh.write(CKPT_MAGIC)
                fh.write(_U32.pack(len(header_bytes)))
                fh.write(header_bytes)
                frame_at = fh.tell()
                fh.write(bytes(_U32.size * 2))  # payload len | crc32, below
                sink = _CrcSink(fh)
                pickle.dump(state, sink, protocol=_PICKLE_PROTO)
                fh.seek(frame_at)
                fh.write(_U32.pack(sink.nbytes) + _U32.pack(sink.crc))
                fh.flush()
                os.fsync(fh.fileno())
        except BaseException:
            tmp.unlink(missing_ok=True)  # e.g. an unpicklable state
            raise
        os.replace(tmp, path)
        self.prune()
        for hook in list(_write_hooks):
            hook(self.lane, seq, path)
        return path

    def prune(self, keep: Optional[int] = None) -> None:
        """Drop superseded generations, keeping the newest ``keep``.

        At least two generations stay on disk so a checkpoint that turns
        out torn on recovery still has a predecessor to fall back to.
        """
        keep = 2 if keep is None else max(1, keep)
        existing = self._existing()
        for _seq, path in existing[:-keep]:
            try:
                path.unlink()
            except OSError:
                pass

    # -- recovery -------------------------------------------------------------

    def load_latest(self, expect: Optional[dict] = None
                    ) -> Optional[Tuple[dict, dict]]:
        """Newest valid ``(header, state)``, or None when the lane is empty.

        Corrupt or truncated files are renamed to ``*.bad`` and recorded
        in :attr:`quarantined`, then the previous generation is tried —
        recovery degrades one checkpoint at a time, never silently to
        from-scratch.  ``expect`` pins header meta fields (detector,
        nranks, trace identity): a mismatch is a hard
        :class:`CheckpointError`, because resuming someone else's
        checkpoint would produce confidently wrong verdicts.
        """
        for seq, path in reversed(self._existing()):
            try:
                header, state = self._read(path)
            except CheckpointError:
                self._quarantine(path)
                continue
            if expect:
                for key, want in expect.items():
                    got = header["meta"].get(key)
                    if got != want:
                        raise CheckpointError(
                            f"{path.name}: checkpoint {key}={got!r} does "
                            f"not match this analysis ({want!r})")
            return header, state
        return None

    def _quarantine(self, path: Path) -> None:
        bad = path.with_suffix(".ckpt.bad")
        try:
            os.replace(path, bad)
        except OSError:
            bad = path
        self.quarantined.append(bad.name)

    def _read(self, path: Path) -> Tuple[dict, dict]:
        try:
            blob = path.read_bytes()
        except OSError as exc:
            raise CheckpointError(f"{path.name}: unreadable: {exc}")
        if blob[:len(CKPT_MAGIC)] != CKPT_MAGIC:
            raise CheckpointError(f"{path.name}: bad magic")
        header, at = self._read_header(path, blob, len(CKPT_MAGIC))
        if header.get("schema") != CKPT_SCHEMA:
            raise CheckpointError(
                f"{path.name}: unknown schema {header.get('schema')!r}")
        if len(blob) < at + _U32.size * 2:
            raise CheckpointError(f"{path.name}: truncated payload frame")
        nbytes = _U32.unpack_from(blob, at)[0]
        crc = _U32.unpack_from(blob, at + _U32.size)[0]
        at += _U32.size * 2
        if len(blob) - at < nbytes:
            raise CheckpointError(f"{path.name}: truncated payload")
        payload = memoryview(blob)[at:at + nbytes]  # in place, no copy
        if zlib.crc32(payload) != crc:
            raise CheckpointError(f"{path.name}: payload crc mismatch")
        try:
            state = pickle.loads(payload)
        except Exception as exc:
            raise CheckpointError(f"{path.name}: undecodable state: {exc}")
        return header, state

    @staticmethod
    def _read_header(path: Path, blob: bytes, at: int) -> Tuple[dict, int]:
        """The JSON header at offset ``at``, and the offset just past it."""
        if len(blob) < at + _U32.size:
            raise CheckpointError(f"{path.name}: truncated header frame")
        hlen = _U32.unpack_from(blob, at)[0]
        at += _U32.size
        if hlen > 1 << 20:
            raise CheckpointError(f"{path.name}: implausible header size")
        if len(blob) - at < hlen:
            raise CheckpointError(f"{path.name}: truncated header")
        try:
            header = json.loads(blob[at:at + hlen].decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"{path.name}: bad header json: {exc}")
        if not isinstance(header, dict):
            raise CheckpointError(f"{path.name}: header is not an object")
        return header, at + hlen


# -- engine plumbing ----------------------------------------------------------
#
# What the chunk loop writes into, and checks against, a checkpoint of
# an analysis run.


def run_meta(detector: str, nranks: int, path, cursor: dict) -> dict:
    """JSON header metadata pinning what this checkpoint belongs to."""
    try:
        trace_bytes = os.path.getsize(path)
    except OSError:
        trace_bytes = None
    return {
        "detector": detector,
        "nranks": nranks,
        "trace": str(path),
        "trace_bytes": trace_bytes,
        "shards": list(range(nranks)),  # the one lane covers every rank
        "events_applied": cursor["events_applied"],
        "chunk": cursor.get("chunk"),
        "chain": cursor.get("chain"),
    }


def verify_resume_trace(meta: dict, path) -> None:
    """Check the trace on disk still begins with the checkpointed prefix.

    Checkpoints verify by *content*: the rolling chain recomputed over
    the first ``meta["chunk"]`` chunks must equal the cursor's chain
    value, which proves byte-identity of the analyzed prefix — and
    therefore admits append-only extensions, the whole point of
    incremental re-analysis.  A shorter or differing file, or one whose
    stored digests disagree with its bytes, raises
    :class:`TraceDivergedError`.  A salvage run's cursor loses its chain
    at a quarantined chunk; its checkpoints fall back to the exact-size
    pin.
    """
    chain = meta.get("chain")
    chunk = meta.get("chunk")
    if chain and chunk:
        reg = obs.active()
        try:
            got = trace_chain(path, upto=chunk)
        except TraceChainMismatch as exc:
            reg.counter("incremental.divergences").add(1)
            raise TraceDivergedError(
                f"{path}: trace does not match the checkpointed prefix "
                f"({exc})", path=str(path), chunk=exc.chunk) from exc
        if len(got["chunks"]) < chunk:
            reg.counter("incremental.divergences").add(1)
            raise TraceDivergedError(
                f"{path}: trace does not match the checkpointed prefix "
                f"(only {len(got['chunks'])} complete chunk(s) on disk, "
                f"checkpoint covers {chunk})", path=str(path))
        if got["chunks"][chunk - 1] != chain:
            reg.counter("incremental.divergences").add(1)
            raise TraceDivergedError(
                f"{path}: trace does not match the checkpointed prefix "
                f"(chain diverged at or before chunk {chunk})",
                path=str(path), chunk=chunk)
        return
    want = meta.get("trace_bytes")
    if want is not None:
        try:
            got_bytes = os.path.getsize(path)
        except OSError:
            return
        if got_bytes != want:
            raise CheckpointError(
                f"checkpoint trace_bytes={want!r} does not match this "
                f"analysis ({got_bytes!r})")


def run_state(body: dict, cursor: dict) -> dict:
    """Payload for one checkpoint: analysis state + registry deltas."""
    reg = obs.active()
    state = dict(body)
    state["cursor"] = cursor
    state["ticks"] = cursor["events_applied"]
    state["obs"] = reg.snapshot() if reg.enabled else None
    tl = reg.timeline
    state["timeline"] = tl.snapshot() if tl is not None else None
    return state


def restore_registry(reg, state: dict) -> None:
    """Fold a checkpoint's obs/timeline deltas back into a registry."""
    if state.get("obs") and reg.enabled:
        reg.merge(state["obs"])
    if state.get("timeline") and reg.timeline is not None:
        reg.timeline.merge(state["timeline"])
