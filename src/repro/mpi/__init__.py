"""Simulated MPI-RMA runtime.

A deterministic, single-process stand-in for the paper's OpenMPI +
LLVM-instrumentation stack: rank programs are generator functions driven
by :class:`World`, every memory access and synchronization call flows
through the PMPI-like :class:`Interposition` to the attached detectors,
and an alpha-beta :class:`SimClock` models cluster timing.

Exports resolve lazily (:mod:`repro._lazy`): trace analysis imports the
trace and error types from this package, and must not pay for the
simulator and numpy it never runs.
"""

from .._lazy import lazy_exports

#: public name -> defining submodule
_EXPORTS = {
    "CostParams": ".costmodel",
    "SimClock": ".costmodel",
    "BYTE": ".datatypes",
    "FLOAT32": ".datatypes",
    "FLOAT64": ".datatypes",
    "GRAPH_TYPE": ".datatypes",
    "INT32": ".datatypes",
    "INT64": ".datatypes",
    "Datatype": ".datatypes",
    "EpochTracker": ".epoch",
    "CollectiveMismatchError": ".errors",
    "DeadlockError": ".errors",
    "EpochError": ".errors",
    "MpiSimError": ".errors",
    "OutOfWindowError": ".errors",
    "RmaUsageError": ".errors",
    "TraceFormatError": ".errors",
    "DetectorProtocol": ".interposition",
    "Interposition": ".interposition",
    "AddressSpace": ".memory",
    "Region": ".memory",
    "RegionInfo": ".memory",
    "RegionKind": ".memory",
    "Buffer": ".simulator",
    "RankContext": ".simulator",
    "Request": ".simulator",
    "World": ".simulator",
    "run_spmd": ".simulator",
    "LocalEvent": ".trace",
    "RmaEvent": ".trace",
    "StreamingTraceLog": ".trace",
    "SyncEvent": ".trace",
    "SyncKind": ".trace",
    "TraceLog": ".trace",
    "LoadedTrace": ".trace_io",
    "load_trace": ".trace_io",
    "replay_trace": ".trace_io",
    "save_trace": ".trace_io",
    "Window": ".window",
}

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
