"""Daemon-level fault injectors for the ``repro serve`` chaos suite.

Three failure families, all deterministic:

* **Process death.**  :class:`KillAfterCheckpoints` hooks the
  checkpoint-write path and ``os._exit``'s the daemon right after a
  job's *n*-th checkpoint lands — no cleanup, no atexit, no flushed
  buffers: to every file and socket it is exactly ``kill -9``, but at a
  reproducible point mid-analysis.  (:func:`kill_daemon` is the blunt
  sibling for killing a real subprocess by pid.)
* **Wedged workers.**  :class:`StallAfterCheckpoints` sleeps the
  analysis thread at the same hook point, modelling a worker that stops
  making progress while the daemon's health endpoints stay live.
* **Broken clients.**  :func:`sever_mid_upload` speaks just enough raw
  HTTP to announce a large body and hang up partway through it.

The process-level injectors are armed in a daemon *subprocess* through
the ``REPRO_SERVE_FAULT`` environment variable (chaos testing only)::

    REPRO_SERVE_FAULT=kill-after-ckpt:2        # die after 2nd ckpt write
    REPRO_SERVE_FAULT=stall-after-ckpt:1:30    # wedge 30s after 1st

``repro serve`` calls :func:`install_serve_faults_from_env` at startup;
with the variable unset this is a no-op.
"""

from __future__ import annotations

import os
import socket
import struct
import time
from dataclasses import dataclass, field

from ..pipeline import checkpoint as _ckpt
from ..serve.server import FAULT_ENV

__all__ = [
    "KillAfterCheckpoints",
    "StallAfterCheckpoints",
    "install_serve_faults_from_env",
    "kill_daemon",
    "sever_mid_upload",
]


@dataclass
class KillAfterCheckpoints:
    """``os._exit`` the process after ``after`` checkpoint-file writes."""

    after: int = 1
    exitcode: int = 137  # what the shell reports for SIGKILL
    seen: int = field(default=0, compare=False)

    def __call__(self, lane: str, seq: int, path) -> None:
        self.seen += 1
        if self.seen >= self.after:
            os._exit(self.exitcode)


@dataclass
class StallAfterCheckpoints:
    """Wedge the calling (analysis) thread after ``after`` writes."""

    after: int = 1
    seconds: float = 3600.0
    seen: int = field(default=0, compare=False)
    fired: bool = field(default=False, compare=False)

    def __call__(self, lane: str, seq: int, path) -> None:
        if self.fired:
            return
        self.seen += 1
        if self.seen >= self.after:
            self.fired = True
            time.sleep(self.seconds)


def install_serve_faults_from_env() -> object:
    """Arm a checkpoint-write fault from ``REPRO_SERVE_FAULT``; or None.

    Returns the installed hook (tests introspect it); raises
    ``ValueError`` on a malformed spec — a chaos run with a typo'd
    injector must fail loudly, not run fault-free and "pass".
    """
    spec = os.environ.get(FAULT_ENV)
    if not spec:
        return None
    parts = spec.split(":")
    kind = parts[0]
    try:
        if kind == "kill-after-ckpt":
            hook = KillAfterCheckpoints(
                after=int(parts[1]),
                exitcode=int(parts[2]) if len(parts) > 2 else 137)
        elif kind == "stall-after-ckpt":
            hook = StallAfterCheckpoints(
                after=int(parts[1]),
                seconds=float(parts[2]) if len(parts) > 2 else 3600.0)
        else:
            raise ValueError(f"unknown fault kind {kind!r}")
    except (IndexError, ValueError) as exc:
        raise ValueError(f"bad {FAULT_ENV} spec {spec!r}: {exc}") from exc
    _ckpt.add_write_hook(hook)
    return hook


def kill_daemon(pid: int) -> None:
    """SIGKILL a daemon subprocess — the real, unhooked ``kill -9``."""
    import signal

    os.kill(pid, signal.SIGKILL)


def sever_mid_upload(host: str, port: int, *, claim_bytes: int,
                     body: bytes = b"", path: str = "/jobs",
                     timeout: float = 5.0) -> None:
    """Open a POST claiming ``claim_bytes``, send ``body``, hang up.

    ``len(body) < claim_bytes`` models a client dying mid-upload: the
    server sees a short read and must reject the partial trace without
    creating a job (and without wedging the handler thread).
    """
    if len(body) >= claim_bytes:
        raise ValueError("body must be shorter than the claimed length")
    head = (f"POST {path} HTTP/1.1\r\n"
            f"Host: {host}:{port}\r\n"
            f"Content-Type: application/octet-stream\r\n"
            f"Content-Length: {claim_bytes}\r\n"
            f"\r\n").encode("ascii")
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall(head + body)
        # abortive close: RST rather than FIN, the rudest disconnect
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                        struct.pack("ii", 1, 0))
