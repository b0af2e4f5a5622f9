"""The HTTP layer: routes, uploads, backpressure, health, drain."""

import json
import os
import shutil
import socket
import threading
import time
import tracemalloc
import urllib.error
import urllib.request
from types import SimpleNamespace

from repro.faultinject import extend_trace, sever_mid_upload
from repro.serve import ServeConfig, poll_job, request, submit_trace
from repro.serve.cache import trace_sha256
from repro.serve.server import _SPOOL_BLOCK, _Handler


def _metrics_text(base):
    status, _, payload = request(f"{base}/metrics")
    assert status == 200
    return payload.get("raw", "")


def test_submit_poll_result_report(daemon, small_trace):
    base, sched, _ = daemon()
    status, _, job = submit_trace(base, small_trace)
    assert status == 202
    assert job["state"] in ("queued", "running")
    job = poll_job(base, job["id"], timeout_s=60.0)
    assert job["state"] == "done"

    status, _, result = request(f"{base}/jobs/{job['id']}/result")
    assert status == 200
    assert result["races"] == 0 and "verdicts" in result

    with urllib.request.urlopen(
            f"{base}/jobs/{job['id']}/report.html", timeout=30) as resp:
        html = resp.read().decode("utf-8")
    assert resp.status == 200 and "<html" in html.lower()


def test_cached_resubmission_via_counters(daemon, small_trace):
    base, sched, _ = daemon()
    _, _, first = submit_trace(base, small_trace)
    assert first["trace_sha"] == trace_sha256(small_trace)
    poll_job(base, first["id"], timeout_s=60.0)
    status, _, again = submit_trace(base, small_trace)
    assert status == 202
    assert again["state"] == "done" and again["cached"]
    status, _, snap = request(f"{base}/metrics?format=json")
    assert status == 200 and snap["schema"] == "repro-obs-v1"
    assert snap["counters"]["serve.cache.hits"] == 1
    assert snap["counters"]["serve.jobs.started"] == 1
    # the upload spool phase of submit -> verdict
    assert snap["counters"]["serve.upload.bytes"] == \
        2 * small_trace.stat().st_size
    assert snap["histograms"]["serve.upload.wall_ms"]["n"] == 2
    text = _metrics_text(base)
    for name in ("serve.cache.hits", "serve.upload.bytes",
                 "serve.upload.wall_ms"):
        assert name in text


def test_health_and_ready(daemon):
    base, _, httpd = daemon()
    status, _, body = request(f"{base}/healthz")
    assert status == 200 and body["ok"]
    status, _, body = request(f"{base}/readyz")
    assert status == 200 and body["ready"]
    httpd.draining.set()
    status, _, body = request(f"{base}/readyz")
    assert status == 503 and body["reason"] == "draining"
    status, headers, _ = request(f"{base}/jobs", method="POST", data=b"x")
    assert status == 503


def test_queue_full_gets_429_with_retry_after(daemon, small_trace):
    # workers never start, so the first job camps in the queue
    base, _, _ = daemon(start_workers=False, max_queue=1)
    status, _, _ = submit_trace(base, small_trace, detector="our")
    assert status == 202
    status, headers, body = submit_trace(base, small_trace, detector="rma")
    assert status == 429
    assert body["error"] == "queue_full"
    assert int(headers["Retry-After"]) >= 1


def test_rejects_garbage_inputs(daemon, small_trace):
    base, _, _ = daemon(start_workers=False)
    status, _, body = request(f"{base}/jobs?detector=nope", method="POST",
                              data=small_trace.read_bytes())
    assert status == 400 and "unknown detector" in body["error"]
    status, _, body = request(f"{base}/jobs?tenant=bad/name", method="POST",
                              data=small_trace.read_bytes())
    assert status == 400 and "tenant" in body["error"]
    status, _, body = request(f"{base}/jobs", method="POST",
                              data=b"this is not a trace " * 10)
    assert status == 400 and "not a readable trace" in body["error"]
    status, _, _ = request(f"{base}/nope")
    assert status == 404
    status, _, _ = request(f"{base}/jobs/j999999")
    assert status == 404


def test_json_lines_upload_is_refused(daemon):
    """Only repro-trace-v2 is analyzed: a JSON-lines trace (the retired
    v1 format) gets 400 and never becomes a job."""
    base, sched, _ = daemon(start_workers=False)
    v1 = b'{"format": "repro-trace-v1", "nranks": 2}\n' + (
        b'{"ev": "sync", "seq": 1, "rank": -1, "kind": "barrier", '
        b'"wid": -1}\n')
    status, _, body = request(f"{base}/jobs", method="POST", data=v1)
    assert status == 400 and "repro-trace-v2" in body["error"]
    status, _, body = request(f"{base}/jobs")
    assert status == 200 and body["jobs"] == []
    assert not list(sched.traces_dir.iterdir())


def test_result_of_unfinished_job_is_409(daemon, small_trace):
    base, _, _ = daemon(start_workers=False)
    _, _, job = submit_trace(base, small_trace)
    status, _, body = request(f"{base}/jobs/{job['id']}/result")
    assert status == 409 and body["job"]["state"] == "queued"


def test_severed_upload_never_becomes_a_job(daemon, small_trace):
    base, sched, _ = daemon(start_workers=False)
    host, port = base[len("http://"):].rsplit(":", 1)
    data = small_trace.read_bytes()
    sever_mid_upload(host, int(port), claim_bytes=len(data),
                     body=data[: len(data) // 2])
    # give the handler thread a beat to hit the short read
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        snap = sched.registry.snapshot()["counters"]
        if snap.get("serve.uploads.rejected{reason=truncated}"):
            break
        time.sleep(0.05)
    assert snap["serve.uploads.rejected{reason=truncated}"] == 1
    # no job, no stray spool file, and the daemon is still healthy
    status, _, body = request(f"{base}/jobs")
    assert status == 200 and body["jobs"] == []
    assert not list(sched.traces_dir.glob(".upload-*"))
    status, _, _ = request(f"{base}/healthz")
    assert status == 200


def test_jobs_listing_round_trips(daemon, small_trace):
    base, _, _ = daemon()
    _, _, job = submit_trace(base, small_trace, tenant="alice")
    poll_job(base, job["id"], timeout_s=60.0)
    status, _, body = request(f"{base}/jobs")
    assert status == 200
    listed = {j["id"]: j for j in body["jobs"]}
    assert listed[job["id"]]["tenant"] == "alice"
    assert json.dumps(body)  # JSON-able end to end


def _raw_get(url):
    """``(status, body bytes)`` of one GET, exactly as the daemon sent it."""
    try:
        with urllib.request.urlopen(url, timeout=30) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


def _recv_until_closed(sock):
    chunks = []
    while True:
        block = sock.recv(1 << 16)
        if not block:
            return b"".join(chunks)
        chunks.append(block)


def test_spool_hashes_through_one_small_buffer(make_scheduler, tmp_path):
    """A 4 MiB upload costs the handler one 64 KiB buffer, and no re-read."""
    sched = make_scheduler()  # workers never start: the job stays queued
    upload = tmp_path / "upload.bin"
    upload.write_bytes(os.urandom(4 << 20) + b"not a block multiple")
    data = upload.read_bytes()
    handler = _Handler.__new__(_Handler)  # the spool alone, no server loop
    handler.server = SimpleNamespace(
        config=ServeConfig(state_dir=str(sched.state_dir)), scheduler=sched)
    handler.headers = {"Content-Length": str(len(data))}
    client, server_end = socket.socketpair()
    handler.rfile = server_end.makefile("rb")
    sender = threading.Thread(target=client.sendall, args=(data,))
    sender.start()
    tracemalloc.start()
    try:
        spooled = handler._spool_body()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        # closing the reading end unblocks the sender if the spool failed
        handler.rfile.close()
        server_end.close()
        sender.join(timeout=30)
        client.close()
    assert not sender.is_alive()
    assert peak < _SPOOL_BLOCK + (32 << 10), peak
    path, sha = spooled
    assert path.read_bytes() == data
    job = sched.submit_file(path, sha=sha)
    assert job.trace_sha == trace_sha256(upload)
    counters = sched.registry.snapshot()["counters"]
    assert counters["serve.upload.bytes"] == len(data)


def test_result_body_is_the_stored_cache_entry(daemon, chaos_trace,
                                               tmp_path):
    """Cold, prefix-resumed and cached jobs serve the entry file's bytes."""
    base, sched, _ = daemon(workers=1)
    work = tmp_path / "grow.trace"
    shutil.copyfile(chaos_trace, work)
    for kind in ("cold", "resumed", "cached"):
        if kind == "resumed":
            extend_trace(work, fraction=0.10)
        status, _, job = submit_trace(base, work)
        assert status == 202
        job = poll_job(base, job["id"], timeout_s=90.0)
        assert job["state"] == "done", job
        assert job["cached"] == (kind == "cached")
        assert bool(job["resumed"]) == (kind == "resumed"), job
        status, body = _raw_get(f"{base}/jobs/{job['id']}/result")
        entry = sched.cache._path(job["trace_sha"], "our")
        assert status == 200 and body == entry.read_bytes(), kind

    # a corrupt entry is quarantined and answered 404, never sent
    torn = entry.read_bytes()[:-100]
    entry.write_bytes(torn)
    status, body = _raw_get(f"{base}/jobs/{job['id']}/result")
    assert status == 404 and "missing" in json.loads(body)["error"]
    assert not entry.exists()
    assert entry.with_name(entry.name + ".bad").read_bytes() == torn


def test_stalled_upload_times_out_and_is_rejected(daemon, small_trace,
                                                  monkeypatch):
    """Headers plus half a body, then silence: 400, spool gone, hung up."""
    assert 0 < _Handler.timeout <= 60  # on by default, not a flag
    monkeypatch.setattr(_Handler, "timeout", 0.5)
    base, sched, _ = daemon(start_workers=False)
    host, port = base[len("http://"):].rsplit(":", 1)
    data = small_trace.read_bytes()
    head = (f"POST /jobs HTTP/1.1\r\nHost: {host}:{port}\r\n"
            f"Content-Length: {len(data)}\r\n\r\n").encode("ascii")
    with socket.create_connection((host, int(port)), timeout=20) as sock:
        sock.sendall(head + data[: len(data) // 2])
        reply = _recv_until_closed(sock)  # the client never sends the rest
    assert reply.startswith(b"HTTP/1.1 400"), reply[:80]
    assert b"truncated upload" in reply
    counters = sched.registry.snapshot()["counters"]
    assert counters["serve.uploads.rejected{reason=truncated}"] == 1
    assert not list(sched.traces_dir.glob(".upload-*"))
    status, _, body = request(f"{base}/jobs")
    assert status == 200 and body["jobs"] == []

    # an idle keep-alive connection is closed after the same timeout
    with socket.create_connection((host, int(port)), timeout=20) as sock:
        sock.sendall(f"GET /healthz HTTP/1.1\r\nHost: {host}\r\n\r\n"
                     .encode("ascii"))
        t0 = time.monotonic()
        reply = _recv_until_closed(sock)
    assert reply.startswith(b"HTTP/1.1 200"), reply[:80]
    assert time.monotonic() - t0 < 10.0
