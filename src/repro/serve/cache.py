"""Content-hash verdict cache: identical traces answer instantly.

Analysis is deterministic — the same trace bytes under the same
detector always produce the same canonical verdicts — so the daemon
keys finished results by ``(sha256(trace), detector)`` and serves a
repeat submission from disk without re-running anything.  Entries are
full ``PipelineResult.to_dict()`` payloads (verdicts, forensics,
timeline), which is also exactly what the HTML report renderer eats.

Next to each entry the scheduler may store a *chain sidecar*
(``<sha>-<detector>.chain.json``): the trace's per-chunk rolling hash
chain (:func:`repro.pipeline.chain.trace_chain`).  Sidecars are the
admission-time index for incremental re-analysis — a new upload whose
chain extends a cached trace's chain resumes from that trace's last
checkpoint cursor instead of chunk 0.

The cache is bounded: past ``max_entries`` verdict entries the
least-recently-*used* (hits refresh mtime) are evicted with atomic
deletes — entry first, then sidecar, so a crash mid-evict can strand a
sidecar but never a verdict whose sidecar vanished.  ``on_evict(sha,
detector)`` lets the owner drop per-entry satellite state (checkpoint
directories) and count the eviction.

Entries are stored as compact, key-sorted JSON (``json.dump``'s bytes,
written by the C encoder one inner value at a time).  Writes are
atomic (tmp + ``os.replace``): a daemon killed mid-store leaves either
a complete entry or none.  Reads treat any undecodable entry as a miss
and quarantine it to ``*.bad`` — a corrupt cache file must never turn
into a wrong verdict.  :meth:`get_bytes` hands out an entry's stored
bytes once they parse as a valid entry, so the result endpoint sends a
verdict without re-encoding it.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Callable, Iterator, Optional, Tuple, Union

__all__ = ["VerdictCache", "trace_sha256"]

#: hex sha256 length — cache file names are ``<sha>-<detector>...``
_SHA_LEN = 64

#: container levels :func:`_write_sorted_json` streams member by member
#: before one ``json.dumps`` call takes a whole value: a result's keys,
#: then e.g. timeline -> lanes -> one lane's records
_STREAM_DEPTH = 3


def trace_sha256(path: Union[str, Path]) -> str:
    """Streaming sha256 of a trace file's bytes (64 KiB at a time)."""
    h = hashlib.sha256()
    buf = memoryview(bytearray(64 << 10))
    with open(path, "rb", buffering=0) as fh:
        for n in iter(lambda: fh.readinto(buf), 0):
            h.update(buf[:n])
    return h.hexdigest()


def _write_sorted_json(obj, write, depth: int = _STREAM_DEPTH) -> None:
    """Write ``json.dumps(obj, sort_keys=True)`` through ``write``, piecewise.

    ``json.dump`` always runs the pure-Python encoder (~4x slower).
    ``json.dumps`` takes the C encoder, but on CPython 3.11 that holds the
    whole output as a list of small fragments, ~10 bytes of heap per byte
    written (1.1 MB for a 104 KB entry).  Streaming the outer ``depth``
    container levels and encoding each inner value in one call keeps the
    C encoder's speed with a transient the size of one inner value.
    """
    if (depth and obj and isinstance(obj, dict)
            and all(type(k) is str for k in obj)):
        sep = "{"
        for key in sorted(obj):
            write(sep + json.dumps(key) + ": ")
            _write_sorted_json(obj[key], write, depth - 1)
            sep = ", "
        write("}")
    elif depth and obj and isinstance(obj, (list, tuple)):
        sep = "["
        for item in obj:
            write(sep)
            _write_sorted_json(item, write, depth - 1)
            sep = ", "
        write("]")
    else:
        write(json.dumps(obj, sort_keys=True))


class VerdictCache:
    """One directory of ``<sha256>-<detector>.json`` result entries."""

    def __init__(
        self,
        directory: Union[str, Path],
        *,
        max_entries: Optional[int] = None,
        on_evict: Optional[Callable[[str, str], None]] = None,
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.dir = Path(directory)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.max_entries = max_entries
        self.on_evict = on_evict

    def _path(self, sha: str, detector: str) -> Path:
        return self.dir / f"{sha}-{detector}.json"

    def _chain_path(self, sha: str, detector: str) -> Path:
        return self.dir / f"{sha}-{detector}.chain.json"

    def get(self, sha: str, detector: str) -> Optional[dict]:
        """The entry's result dict, or None on a miss."""
        got = self._load(sha, detector)
        return None if got is None else got[1]

    def get_bytes(self, sha: str, detector: str) -> Optional[bytes]:
        """The entry file's bytes, once they parse as a valid entry."""
        got = self._load(sha, detector)
        return None if got is None else got[0]

    def _load(self, sha: str, detector: str) -> Optional[Tuple[bytes, dict]]:
        path = self._path(sha, detector)
        try:
            blob = path.read_bytes()
            entry = json.loads(blob)
        except FileNotFoundError:
            return None
        except (OSError, ValueError):  # undecodable bytes or JSON
            self._quarantine(path)
            return None
        if not isinstance(entry, dict) or "verdicts" not in entry:
            self._quarantine(path)
            return None
        try:
            os.utime(path)  # LRU: a hit makes the entry recently used
        except OSError:
            pass
        return blob, entry

    def put(self, sha: str, detector: str, result: dict) -> Path:
        path = self._write_json(self._path(sha, detector), result)
        self._evict()
        return path

    # -- chain sidecars -------------------------------------------------------

    def put_chain(self, sha: str, detector: str, chain: dict) -> Path:
        """Store a trace's rolling-chain index next to its verdicts."""
        return self._write_json(self._chain_path(sha, detector), chain)

    def get_chain(self, sha: str, detector: str) -> Optional[dict]:
        path = self._chain_path(sha, detector)
        try:
            with open(path) as fh:
                chain = json.load(fh)
        except FileNotFoundError:
            return None
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            self._quarantine(path)
            return None
        if not isinstance(chain, dict) or not chain.get("chunks"):
            self._quarantine(path)
            return None
        return chain

    def iter_chains(self, detector: str) -> Iterator[Tuple[str, dict]]:
        """Yield ``(sha, chain)`` for every stored sidecar of ``detector``.

        Only sidecars whose verdict entry still exists are yielded — an
        evicted or quarantined entry has no checkpoint to resume from,
        so its chain must not nominate it as a prefix ancestor.
        """
        suffix = f"-{detector}.chain.json"
        for path in sorted(self.dir.glob(f"*{suffix}")):
            sha = path.name[:-len(suffix)]
            if len(sha) != _SHA_LEN or not self._path(sha, detector).exists():
                continue
            chain = self.get_chain(sha, detector)
            if chain is not None:
                yield sha, chain

    # -- internals ------------------------------------------------------------

    @staticmethod
    def _write_json(path: Path, payload: dict) -> Path:
        tmp = path.with_suffix(".tmp")
        with open(tmp, "w") as fh:
            _write_sorted_json(payload, fh.write)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        return path

    def _entries(self):
        """Verdict entries (not sidecars, not quarantine) with mtimes."""
        out = []
        for path in self.dir.glob("*.json"):
            name = path.name
            if name.endswith(".chain.json") or len(name) <= _SHA_LEN + 1:
                continue
            try:
                mtime = path.stat().st_mtime
            except OSError:
                continue
            stem = name[:-len(".json")]
            sha, detector = stem[:_SHA_LEN], stem[_SHA_LEN + 1:]
            if len(sha) != _SHA_LEN or not detector:
                continue
            out.append((mtime, path, sha, detector))
        out.sort()
        return out

    def _evict(self) -> None:
        if self.max_entries is None:
            return
        entries = self._entries()
        excess = len(entries) - self.max_entries
        for mtime, path, sha, detector in entries[:max(0, excess)]:
            try:
                path.unlink()
            except OSError:
                continue
            try:
                self._chain_path(sha, detector).unlink()
            except OSError:
                pass
            if self.on_evict is not None:
                self.on_evict(sha, detector)

    def _quarantine(self, path: Path) -> None:
        try:
            os.replace(path, Path(str(path) + ".bad"))
        except OSError:
            pass
