"""The HTTP face of the daemon: stdlib ``http.server``, zero deps.

Endpoints::

    POST /jobs?detector=our&tenant=t   submit a trace (body = trace bytes)
    GET  /jobs                         job table
    GET  /jobs/<id>                    one job's state
    GET  /jobs/<id>/result             full result JSON (done jobs)
    GET  /jobs/<id>/report.html        self-contained HTML race report
    GET  /healthz                      liveness (200 while the process runs)
    GET  /readyz                       readiness (503 once draining)
    GET  /metrics                      obs registry (text; ?format=json)

An upload of any size streams through one reused 64 KiB buffer and is
hashed as it is spooled; a result is sent as its cache entry's stored
bytes, never re-encoded.

Failure posture:

* An upload that stops short of its ``Content-Length`` (client severed
  mid-upload, or gone quiet for :attr:`_Handler.timeout` seconds) is
  rejected with 400 and its spool file removed — a half-received trace
  never becomes a job, and a stalled client never pins a handler
  thread.  The same timeout closes idle keep-alive connections.
* Admission rejections are 429 with ``Retry-After`` (see
  :class:`~repro.serve.scheduler.Scheduler`).
* SIGTERM triggers a graceful drain: readiness flips to 503, the
  listener stops accepting, in-flight jobs checkpoint and are journaled
  back to ``queued``, and the process exits 0.  ``kill -9`` is the case
  the journal exists for: the next start replays it and resumes.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Optional, Tuple, Union
from urllib.parse import parse_qs, urlsplit

from .. import obs
from .._fields import Fields
from ..detectors import detector_names
from ..mpi.errors import TraceFormatError
from ..pipeline import TraceReader
from .scheduler import AdmissionError, Scheduler

#: environment variable that arms a daemon fault injector (chaos runs
#: only; :mod:`repro.faultinject.daemon` parses its value)
FAULT_ENV = "REPRO_SERVE_FAULT"

__all__ = ["ServeConfig", "ReproServer", "serve_forever", "write_endpoint"]

#: upload spool block: the one buffer an upload is read into
_SPOOL_BLOCK = 64 << 10

#: characters allowed in a tenant name (it lands in metric labels)
_TENANT_OK = set("abcdefghijklmnopqrstuvwxyz"
                 "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-")


class ServeConfig(Fields, frozen=True):
    """Everything ``repro serve`` needs, as one frozen bag."""

    _fields = ("state_dir", "host", "port", "workers", "max_queue",
               "tenant_cap", "retries", "deadline_s", "max_rss_mb",
               "ckpt_every", "drain_s", "max_body_mb", "cache_max", "quiet")

    def __init__(self, state_dir: str, host: str = "127.0.0.1",
                 port: int = 0, workers: int = 2, max_queue: int = 16,
                 tenant_cap: int = 4, retries: int = 2,
                 deadline_s: Optional[float] = None,
                 max_rss_mb: Optional[int] = None,
                 ckpt_every: Optional[int] = None, drain_s: float = 10.0,
                 max_body_mb: int = 256, cache_max: Optional[int] = 256,
                 quiet: bool = True) -> None:
        for name, value in zip(self._fields, (
                state_dir, host, port, workers, max_queue, tenant_cap,
                retries, deadline_s, max_rss_mb, ckpt_every, drain_s,
                max_body_mb, cache_max, quiet)):
            object.__setattr__(self, name, value)


def write_endpoint(state_dir: Union[str, Path], host: str, port: int) -> Path:
    """Atomically publish ``serve.json`` (host/port/pid) in the state dir.

    Clients (``repro submit --state``) and the chaos harness discover a
    daemon on an ephemeral port through this file.
    """
    path = Path(state_dir) / "serve.json"
    tmp = path.with_suffix(".tmp")
    with open(tmp, "w") as fh:
        json.dump({"host": host, "port": port, "pid": os.getpid(),
                   "started_at": time.time()}, fh)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    return path


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"
    #: socket timeout (s): a client silent this long mid-request or
    #: between keep-alive requests loses its connection
    timeout = 30.0

    # -- plumbing -------------------------------------------------------------

    @property
    def scheduler(self) -> Scheduler:
        return self.server.scheduler

    def log_message(self, fmt, *args):  # noqa: N802 - stdlib name
        if not self.server.config.quiet:
            super().log_message(fmt, *args)

    def _send_json(self, code: int, payload, *, headers=()) -> None:
        body = (json.dumps(payload, indent=2) + "\n").encode("utf-8")
        self._send_bytes(code, body, "application/json", headers)

    def _send_bytes(self, code: int, body: bytes, ctype: str,
                    headers=()) -> None:
        try:
            self.send_response(code)
            self.send_header("Content-Type", ctype)
            self.send_header("Content-Length", str(len(body)))
            for k, v in headers:
                self.send_header(k, v)
            self.end_headers()
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):
            pass  # the client left; nothing of ours is at stake

    def _count(self, route: str, method: str) -> None:
        self.scheduler._count("serve.http.requests", route=route,
                              method=method)

    # -- GET ------------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - stdlib name
        url = urlsplit(self.path)
        parts = [p for p in url.path.split("/") if p]
        if url.path == "/healthz":
            self._count("healthz", "GET")
            self._send_json(200, {"ok": True, "pid": os.getpid()})
        elif url.path == "/readyz":
            self._count("readyz", "GET")
            if self.server.draining.is_set():
                self._send_json(503, {"ready": False, "reason": "draining"})
            else:
                self._send_json(200, {"ready": True})
        elif url.path == "/metrics":
            self._count("metrics", "GET")
            self._metrics(url)
        elif parts == ["jobs"]:
            self._count("jobs", "GET")
            self._send_json(200, {"jobs": self.scheduler.list_jobs()})
        elif len(parts) == 2 and parts[0] == "jobs":
            self._count("job", "GET")
            job = self.scheduler.get_job(parts[1])
            if job is None:
                self._send_json(404, {"error": f"no job {parts[1]!r}"})
            else:
                self._send_json(200, job)
        elif len(parts) == 3 and parts[0] == "jobs":
            self._job_artifact(parts[1], parts[2])
        else:
            self._send_json(404, {"error": f"no route {url.path!r}"})

    def _metrics(self, url) -> None:
        reg = self.scheduler.registry
        if not reg.enabled:
            self._send_json(200, {"schema": "repro-obs-v1", "counters": {},
                                  "gauges": {}, "histograms": {}, "spans": {}})
            return
        with self.scheduler._lock:
            snap = reg.snapshot()
        fmt = parse_qs(url.query).get("format", [""])[0]
        if fmt == "json":
            self._send_json(200, snap)
        else:
            self._send_bytes(200, (obs.render_metrics(snap) + "\n")
                             .encode("utf-8"), "text/plain; charset=utf-8")

    def _job_artifact(self, jid: str, what: str) -> None:
        job = self.scheduler.get_job(jid)
        if job is None:
            self._send_json(404, {"error": f"no job {jid!r}"})
            return
        if job["state"] != "done":
            self._send_json(409, {"error": f"job {jid} is {job['state']!r}, "
                                           "not done", "job": job})
            return
        if what == "result":
            self._count("result", "GET")
            # the cache entry's stored bytes, never re-encoded per fetch
            body = self.scheduler.get_result_bytes(jid)
            ctype = "application/json"
        elif what == "report.html":
            self._count("report", "GET")
            result = self.scheduler.get_result(jid)
            body = None
            if result is not None:
                from ..obs.htmlreport import render_html_report

                body = render_html_report(
                    result, title=f"repro race report — job {jid}"
                ).encode("utf-8")
            ctype = "text/html; charset=utf-8"
        else:
            self._send_json(404, {"error": f"no artifact {what!r}"})
            return
        if body is None:
            self._send_json(404, {"error": f"result for {jid} is missing"})
        else:
            self._send_bytes(200, body, ctype)

    # -- POST -----------------------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802 - stdlib name
        url = urlsplit(self.path)
        if url.path != "/jobs":
            self._send_json(404, {"error": f"no route {url.path!r}"})
            return
        self._count("submit", "POST")
        if self.server.draining.is_set():
            self._send_json(503, {"error": "draining"},
                            headers=[("Retry-After", "5")])
            return
        params = parse_qs(url.query)
        detector = params.get("detector", ["our"])[0]
        tenant = params.get("tenant", ["default"])[0]
        names = detector_names()
        if detector not in names:
            self._send_json(400, {"error": f"unknown detector {detector!r}; "
                                           f"have {list(names)}"})
            return
        if not tenant or len(tenant) > 64 or set(tenant) - _TENANT_OK:
            self._send_json(400, {"error": "invalid tenant name"})
            return
        upload = self._spool_body()
        if upload is None:
            return  # error already sent
        spooled, sha = upload
        try:
            # a cheap structural check before admission: an upload that
            # is not a trace at all never becomes a job
            TraceReader(spooled)
        except TraceFormatError as exc:
            spooled.unlink(missing_ok=True)
            self.scheduler._count("serve.uploads.rejected", reason="corrupt")
            self._send_json(400, {"error": f"not a readable trace: {exc}"})
            return
        try:
            job = self.scheduler.submit_file(spooled, tenant=tenant,
                                             detector=detector, sha=sha)
        except AdmissionError as exc:
            spooled.unlink(missing_ok=True)
            self._send_json(
                429, {"error": exc.reason,
                      "retry_after_s": exc.retry_after_s},
                headers=[("Retry-After",
                          str(max(1, int(exc.retry_after_s))))])
            return
        self._send_json(202, job.to_dict())

    def _spool_body(self) -> Optional[Tuple[Path, str]]:
        """Stream the upload to a spool file, hashing it on the way.

        Returns ``(spool path, hex sha256)``, or None once an error
        response is sent.  The body is read into one reused
        :data:`_SPOOL_BLOCK` buffer, so an upload of any size costs the
        handler thread 64 KiB, and admission never re-reads the file to
        hash it.
        """
        length = self.headers.get("Content-Length")
        if length is None:
            self._send_json(411, {"error": "Content-Length required"})
            return None
        try:
            length = int(length)
        except ValueError:
            self._send_json(400, {"error": "bad Content-Length"})
            return None
        limit = self.server.config.max_body_mb * (1 << 20)
        if length <= 0:
            self._send_json(400, {"error": "empty upload"})
            return None
        if length > limit:
            self._send_json(413, {"error": f"upload exceeds "
                                           f"{self.server.config.max_body_mb}"
                                           " MiB"})
            return None
        spool = (self.scheduler.traces_dir
                 / f".upload-{threading.get_ident()}-{time.monotonic_ns()}.tmp")
        t0 = time.perf_counter()
        sha = hashlib.sha256()
        buf = memoryview(bytearray(_SPOOL_BLOCK))
        got = 0
        try:
            with open(spool, "wb") as fh:
                while got < length:
                    n = self.rfile.readinto(buf[:min(_SPOOL_BLOCK,
                                                     length - got)])
                    if not n:
                        break  # client severed the connection mid-upload
                    sha.update(buf[:n])
                    fh.write(buf[:n])
                    got += n
        except OSError:  # reset, or silent past the socket timeout
            got = -1
        if got != length:
            spool.unlink(missing_ok=True)
            self.scheduler._count("serve.uploads.rejected",
                                  reason="truncated")
            # the rest of the body may still arrive: the stream is out
            # of step, so this connection carries no further request
            self.close_connection = True
            self._send_json(400, {"error": f"truncated upload: got "
                                           f"{max(got, 0)} of {length} bytes"})
            return None
        sched = self.scheduler
        if sched.registry.enabled:
            with sched._lock:
                sched.registry.counter("serve.upload.bytes").add(length)
                sched.registry.histogram("serve.upload.wall_ms").observe(
                    int((time.perf_counter() - t0) * 1000))
        return spool, sha.hexdigest()


class ReproServer(ThreadingHTTPServer):
    """ThreadingHTTPServer wired to one scheduler."""

    daemon_threads = True

    def __init__(self, config: ServeConfig, scheduler: Scheduler) -> None:
        self.config = config
        self.scheduler = scheduler
        self.draining = threading.Event()
        super().__init__((config.host, config.port), _Handler)


def serve_forever(config: ServeConfig,
                  *, ready_callback=None) -> int:
    """Run the daemon until SIGTERM/SIGINT; returns the process exit code.

    Startup order is recovery-first: replay the journal, requeue
    interrupted jobs, start the workers, then open the listener and
    publish ``serve.json`` — by the time a client can reach the port,
    every pre-crash job is already moving again.
    """
    if os.environ.get(FAULT_ENV):
        # chaos runs only: the fault-injection harness never loads into
        # a production daemon
        from ..faultinject.daemon import install_serve_faults_from_env

        install_serve_faults_from_env()
    scheduler = Scheduler(
        config.state_dir,
        workers=config.workers, max_queue=config.max_queue,
        tenant_cap=config.tenant_cap, retries=config.retries,
        deadline_s=config.deadline_s, max_rss_mb=config.max_rss_mb,
        ckpt_every=config.ckpt_every, cache_max=config.cache_max,
    )
    recovered = scheduler.recover()
    scheduler.start()
    httpd = ReproServer(config, scheduler)
    host, port = httpd.server_address[:2]
    endpoint = write_endpoint(config.state_dir, host, port)
    stop = threading.Event()

    def _terminate(signum, frame):
        stop.set()
        httpd.draining.set()
        threading.Thread(target=httpd.shutdown, daemon=True).start()

    old_term = signal.signal(signal.SIGTERM, _terminate)
    old_int = signal.signal(signal.SIGINT, _terminate)
    print(f"repro serve: listening on http://{host}:{port} "
          f"(state {config.state_dir}, {config.workers} worker(s), "
          f"queue {config.max_queue}, recovered {recovered['jobs']} job(s), "
          f"requeued {recovered['requeued']})", flush=True)
    if ready_callback is not None:
        ready_callback(host, port)
    try:
        httpd.serve_forever(poll_interval=0.1)
    finally:
        signal.signal(signal.SIGTERM, old_term)
        signal.signal(signal.SIGINT, old_int)
        httpd.server_close()
        live = scheduler.drain(timeout=config.drain_s)
        endpoint.unlink(missing_ok=True)
        print(f"repro serve: drained; {len(live)} job(s) requeued for "
              "the next start", flush=True)
    return 0
