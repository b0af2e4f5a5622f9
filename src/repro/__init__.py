"""repro — reproduction of "Rethinking Data Race Detection in MPI-RMA
Programs" (Vinayagame et al., Correctness @ SC-W 2023).

Layering (bottom up):

* :mod:`repro.intervals` — interval/access algebra, Table 1, Fig. 3,
* :mod:`repro.bst` — from-scratch balanced interval BST (+ the legacy
  unsound search),
* :mod:`repro.core` — the paper's new insertion algorithm and detector
  (:class:`FlatDetector`; the object core ``OurDetector`` is the
  reference oracle),
* :mod:`repro.tsan` — vector clocks / shadow memory substrate,
* :mod:`repro.detectors` — RMA-Analyzer, MUST-RMA, Park, MC-CChecker,
* :mod:`repro.mpi` — the simulated MPI-RMA runtime,
* :mod:`repro.aliasing` — the instrumentation filter,
* :mod:`repro.microbench` — the 154-code validation suite,
* :mod:`repro.apps` — MiniVite-like and CFD-Proxy-like applications,
* :mod:`repro.experiments` — one driver per paper table/figure.

Quickstart::

    from repro import FlatDetector, World

    def program(ctx):
        win = yield ctx.win_allocate("w", 64)
        buf = ctx.alloc("buf", 64, rma_hint=True)
        ctx.win_lock_all(win)
        if ctx.rank == 0:
            ctx.get(win, target=1, disp=0, buf=buf, count=8)
            ctx.load(buf, 0)          # races with the async MPI_Get!
        ctx.win_unlock_all(win)
        yield ctx.win_free(win)

    det = FlatDetector()
    world = World(2, [det])
    world.run(program)
    print(det.reports[0].message)
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

#: public name -> defining subpackage, resolved on first access so
#: ``import repro.<anything>`` never drags in the simulator and numpy
_EXPORTS = {
    "DataRaceError": ".core",
    "FlatDetector": ".core",
    "RaceReport": ".core",
    "McCChecker": ".detectors",
    "MustRma": ".detectors",
    "ParkMirror": ".detectors",
    "RmaAnalyzerLegacy": ".detectors",
    "AccessType": ".intervals",
    "DebugInfo": ".intervals",
    "Interval": ".intervals",
    "MemoryAccess": ".intervals",
    "World": ".mpi",
    "run_spmd": ".mpi",
}

__all__ = sorted(_EXPORTS) + ["__version__"]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
