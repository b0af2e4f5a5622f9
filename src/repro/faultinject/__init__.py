"""Fault injection for the analysis runtime — chaos, made deterministic.

A resilience claim is only as good as the failures it has been shown to
survive.  This package provides seeded, reproducible fault *plans*
against the pipeline (kill a worker after batch *k*, stall one past the
supervision timeout) and the trace files themselves (flip payload bytes
in chunk *j*, truncate mid-chunk, smash a frame tag), plus a simulated
recorder crash for the atomic-finalize path.  The chaos suite under
``tests/resilience/`` drives every plan and asserts that analysis
either recovers to byte-identical verdicts or degrades cleanly with
accurate loss accounting — never hangs, never lies.

Quickstart::

    from repro.faultinject import FaultPlan, KillWorker, flip_bytes
    from repro.pipeline import analyze_trace

    plan = FaultPlan(actions=(KillWorker(worker=1, after_batches=2),))
    result = analyze_trace("mv.trace", jobs=4, dispatch="file",
                           fault_plan=plan)      # retried, full verdicts

    flip_bytes("mv.trace", chunk=3, seed=7)
    result = analyze_trace("mv.trace", salvage=True)  # chunk 3 quarantined

Exports resolve lazily (:mod:`repro._lazy`): a daemon armed through
``REPRO_SERVE_FAULT`` loads only :mod:`~repro.faultinject.daemon`.
"""

from .._lazy import lazy_exports

#: public name -> defining submodule
_EXPORTS = {
    "ChunkInfo": ".corrupt",
    "chunk_index": ".corrupt",
    "corrupt_checkpoint": ".corrupt",
    "corrupt_chunk_tag": ".corrupt",
    "corrupt_journal_record": ".corrupt",
    "flip_bytes": ".corrupt",
    "truncate_mid_chunk": ".corrupt",
    "KillAfterCheckpoints": ".daemon",
    "StallAfterCheckpoints": ".daemon",
    "install_serve_faults_from_env": ".daemon",
    "kill_daemon": ".daemon",
    "sever_mid_upload": ".daemon",
    "append_mid_analysis": ".incremental",
    "extend_trace": ".incremental",
    "rewrite_prefix": ".incremental",
    "truncate_tail_mid_append": ".incremental",
    "FaultPlan": ".plan",
    "KillWorker": ".plan",
    "SimulatedWriterCrash": ".plan",
    "StallWorker": ".plan",
    "WriterCrash": ".plan",
}

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
