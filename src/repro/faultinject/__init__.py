"""Fault injection for the analysis runtime — chaos, made deterministic.

A resilience claim is only as good as the failures it has been shown to
survive.  This package damages the trace files themselves (flip payload
bytes in chunk *j*, truncate mid-chunk, smash a frame tag), checkpoints
and journals, grows or rewrites a trace under a follower, kills or
stalls the serving daemon at a seeded checkpoint, and simulates a
recorder crash for the atomic-finalize path.  The chaos suite under
``tests/resilience/`` drives every injector and asserts that analysis
either recovers to byte-identical verdicts or degrades cleanly with
accurate loss accounting — never hangs, never lies.

Quickstart::

    from repro.faultinject import flip_bytes
    from repro.pipeline import analyze_trace

    flip_bytes("mv.trace", chunk=3, seed=7)
    result = analyze_trace("mv.trace", salvage=True)  # chunk 3 quarantined
    print(result.salvage["events_lost"], "event(s) lost")

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
    "SimulatedWriterCrash": ".plan",
    "WriterCrash": ".plan",
}

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
