"""The data-race detectors under comparison.

* :class:`RmaAnalyzerLegacy` — the original tool (paper's baseline),
* :class:`repro.core.OurDetector` — the paper's contribution (lives in
  :mod:`repro.core`, re-exported here for convenience),
* :class:`MustRma` — the MUST + ThreadSanitizer model,
* :class:`ParkMirror` — mirror-window checking (related work),
* :class:`McCChecker` — clock-based post-mortem analysis (related work).
"""

from .._lazy import lazy_exports

#: public name -> defining module, resolved on first access:
#: the flat core subclasses ``BstDetector`` and must not pull the
#: baseline tools (and their vector-clock substrate) into trace analysis
_EXPORTS = {
    "BstDetector": ".bst_common",
    "Detector": ".base",
    "McCChecker": ".mc_cchecker",
    "MustRma": ".must_rma",
    "NodeStats": ".base",
    # OurDetector is defined in repro.core (it *is* the contribution)
    "OurDetector": "..core.detector",
    "ParkMirror": ".park_mirror",
    "RmaAnalyzerLegacy": ".rma_analyzer",
}

__all__ = sorted(n for n in _EXPORTS if n != "OurDetector")

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
