"""Sharded parallel trace-analysis pipeline.

The paper's detector is on-the-fly and per-window: every access is
checked against one window's BST.  Analysis of a *recorded* execution is
therefore embarrassingly parallel across per-rank shards, which this
subsystem exploits end to end:

* :mod:`repro.pipeline.format` — the streaming reader of
  ``repro-trace-v2``, the chunked binary format and the one input every
  analysis reads; :mod:`repro.pipeline.writer` holds the writer,
* :mod:`repro.pipeline.shard` — event routing by memory rank, with sync
  events replicated so every shard sees the full ordering skeleton,
* :mod:`repro.pipeline.engine` — ``analyze_trace``: the serial chunk
  loop every default analysis runs, and the deterministic aggregator,
* :mod:`repro.pipeline.multiproc` — the multi-process engine behind
  ``jobs>1`` (batched queue or file dispatch, bounded queues, worker
  recycling), loaded only when asked for,
* :mod:`repro.pipeline.resilience` — worker supervision: heartbeats,
  stall timeouts, crash detection, and the retry/degrade machinery
  that keeps a crashed or wedged worker from sinking the analysis,
* :mod:`repro.pipeline.checkpoint` — crash-consistent ``repro-ckpt-v1``
  checkpoints of in-flight detector state, so retries resume mid-trace
  and the deadline/memory guards leave resumable partial runs,
* :mod:`repro.pipeline.record` — ``repro record``: run an app with a
  constant-memory streaming recorder attached.

Quickstart::

    from repro.pipeline import analyze_trace, record_app

    record_app("minivite", nranks=8, out="mv.trace")
    result = analyze_trace("mv.trace", detector="our", jobs=4)
    print(result.races, round(result.events_per_sec), "events/s")

Any existing :class:`~repro.mpi.interposition.DetectorProtocol` detector
runs unchanged — the pipeline instantiates one per shard and merges
verdicts afterwards.

Exports resolve lazily (:mod:`repro._lazy`): a serial analysis loads
the engine, the reader and the flat core, never the multi-process
engine, the supervision layer, the checkpoint module (unless asked
to checkpoint), the writer or the recorder.
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
    "compare_chain": ".format",
    "trace_chain": ".format",
    "AppSpec": ".record",
    "RECORDABLE_APPS": ".record",
    "RecordResult": ".record",
    "record_app": ".record",
    "HEARTBEAT_INTERVAL": ".resilience",
    "CollectOutcome": ".resilience",
    "WorkerFailure": ".resilience",
    "backoff_delay": ".resilience",
    "collect_results": ".resilience",
    "ReplayWindow": ".shard",
    "dispatch_event": ".shard",
    "own_reports": ".shard",
    "shards_of": ".shard",
    "BinaryTraceWriter": ".writer",
    "make_trace_writer": ".writer",
}

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
