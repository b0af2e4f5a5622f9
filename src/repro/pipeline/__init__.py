"""Post-mortem trace-analysis pipeline.

The paper's detector is on-the-fly and per-window: every access is
checked against one window's BST.  This subsystem replays a *recorded*
execution through the same detector, one process, one chunk loop:

* :mod:`repro.pipeline.format` — the streaming reader of
  ``repro-trace-v2``, the chunked binary format and the one input every
  analysis reads; :mod:`repro.pipeline.writer` holds the writer,
* :mod:`repro.pipeline.shard` — the trace-event → detector-hook
  mapping, per event and per chunk,
* :mod:`repro.pipeline.engine` — ``analyze_trace``: the serial chunk
  loop every analysis runs, and the canonical verdict order,
* :mod:`repro.pipeline.checkpoint` — crash-consistent ``repro-ckpt-v1``
  checkpoints of in-flight detector state, so the deadline, drain and
  memory guards leave resumable partial runs and a crashed run resumes
  mid-trace,
* :mod:`repro.pipeline.record` — ``repro record``: run an app with a
  constant-memory streaming recorder attached.

Quickstart::

    from repro.pipeline import analyze_trace, record_app

    record_app("minivite", nranks=8, out="mv.trace")
    result = analyze_trace("mv.trace", detector="our")
    print(result.races, round(result.events_per_sec), "events/s")

Any existing :class:`~repro.mpi.interposition.DetectorProtocol` detector
runs unchanged.

Exports resolve lazily (:mod:`repro._lazy`): an analysis loads the
engine, the reader and the flat core, never the checkpoint module
(unless asked to checkpoint), the writer or the recorder.
"""

from .._lazy import lazy_exports

#: public name -> defining submodule
_EXPORTS = {
    "CKPT_MAGIC": ".checkpoint",
    "CKPT_SCHEMA": ".checkpoint",
    "CheckpointError": "..mpi.errors",
    "CheckpointPlan": ".checkpoint",
    "CheckpointStore": ".checkpoint",
    "TraceDivergedError": "..mpi.errors",
    "PipelineResult": ".engine",
    "ShardStats": ".engine",
    "analyze_trace": ".engine",
    "canonical_verdicts": ".engine",
    "CHAIN_ALGO": ".format",
    "FORMAT_V2": ".format",
    "MAGIC_V2": ".format",
    "TraceReader": ".format",
    "compare_chain": ".chain",
    "trace_chain": ".chain",
    "AppSpec": ".record",
    "RECORDABLE_APPS": ".record",
    "RecordResult": ".record",
    "record_app": ".record",
    "ReplayWindow": ".shard",
    "dispatch_event": ".shard",
    "BinaryTraceWriter": ".writer",
    "make_trace_writer": ".writer",
}

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
