"""The paper's two "real-life" evaluation applications, simulated.

* :mod:`repro.apps.minivite` — single-phase distributed Louvain (the
  non-adjacent-access workload of Figs 11/12 and Table 4),
* :mod:`repro.apps.cfd_proxy` — iterated halo exchange over two windows
  (the merging-friendly workload of Fig. 10),
* :mod:`repro.apps.graphgen` / :mod:`repro.apps.meshgen` — synthetic
  inputs,
* :mod:`repro.apps.harness` — the shared measurement runner.
"""

from .cfd_proxy import CfdConfig, CfdResult, cfd_program, default_partitions
from .graphgen import Graph, block_range, generate_graph, owner_of
from .harness import AppRun, detector_factory, run_app
from .histogram import HistogramConfig, HistogramResult, histogram_program
from .meshgen import MeshPartition, make_partitions
from .minivite import (
    CommPlan,
    MiniViteConfig,
    MiniViteResult,
    default_graph,
    make_comm_plan,
    minivite_program,
)

__all__ = [
    "AppRun",
    "CfdConfig",
    "CfdResult",
    "CommPlan",
    "Graph",
    "HistogramConfig",
    "HistogramResult",
    "MeshPartition",
    "MiniViteConfig",
    "MiniViteResult",
    "block_range",
    "cfd_program",
    "default_graph",
    "default_partitions",
    "detector_factory",
    "generate_graph",
    "histogram_program",
    "make_comm_plan",
    "make_partitions",
    "minivite_program",
    "owner_of",
    "run_app",
]
