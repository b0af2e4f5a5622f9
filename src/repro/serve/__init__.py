"""``repro.serve`` — the crash-safe analysis daemon.

Analysis-as-a-service over the substrate the pipeline already provides:
trace uploads become durable *jobs* (``repro-jobs-v1`` journal,
:mod:`~repro.serve.journal`), a bounded scheduler with per-tenant caps
runs each one as a checkpointed serial analysis
(:mod:`~repro.serve.scheduler`), finished verdicts are content-hash
cached (:mod:`~repro.serve.cache`), and a zero-dependency stdlib HTTP
server fronts the whole thing (:mod:`~repro.serve.server`).

The design center is crash safety, in the same spirit as the paper's
insistence on trustworthy race reports: after a hard daemon kill, a
restart replays the journal, requeues every interrupted job, and each
resumes from its newest ``repro-ckpt-v1`` cursor — final verdicts are
byte-identical to a direct ``repro analyze`` of the same trace.  The
chaos suite under ``tests/serve/`` certifies exactly that, failure by
injected failure.

Quickstart::

    repro serve --state /tmp/svc --port 8787 &
    repro submit mv.trace --server http://127.0.0.1:8787 --wait
    repro jobs --server http://127.0.0.1:8787

Exports resolve lazily (:mod:`repro._lazy`): the daemon never imports
the HTTP client (:mod:`~repro.serve.client`, ``urllib.request``), which
only ``repro submit`` / ``repro jobs`` use.
"""

from .._lazy import lazy_exports

#: public name -> defining submodule
_EXPORTS = {
    "VerdictCache": ".cache",
    "trace_sha256": ".cache",
    "ServerUnavailable": ".client",
    "poll_job": ".client",
    "request": ".client",
    "resolve_server": ".client",
    "submit_trace": ".client",
    "submit_with_retry": ".client",
    "JOURNAL_MAGIC": ".journal",
    "JOURNAL_SCHEMA": ".journal",
    "JobJournal": ".journal",
    "JournalError": ".journal",
    "AdmissionError": ".scheduler",
    "Job": ".scheduler",
    "Scheduler": ".scheduler",
    "job_ckpt_dir": ".scheduler",
    "ReproServer": ".server",
    "ServeConfig": ".server",
    "serve_forever": ".server",
    "write_endpoint": ".server",
}

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
