"""The data-race detectors under comparison, and the one table naming them.

* :class:`repro.core.FlatDetector` — the paper's contribution, the only
  "ours" the product builds (it lives in :mod:`repro.core`),
* :class:`RmaAnalyzerLegacy` — the original tool (paper's baseline),
* :class:`MustRma` — the MUST + ThreadSanitizer model,
* :class:`ParkMirror` — mirror-window checking (related work),
* :class:`McCChecker` — clock-based post-mortem analysis (related work).

:data:`DETECTORS` is the registry every entry point reads: the CLI's
``--detector`` and serve's ``?detector=`` (``cli`` names), the apps
harness and Fig. 10 (``paper`` names: each class's ``name``), and the
scenario scorer (``tool`` names).  The object core
(:class:`repro.core.OurDetector`) is in no row: it is the reference
oracle the tests and the strided extension build directly.
"""

import sys
from typing import NamedTuple, Optional, Tuple

from .._lazy import lazy_exports

#: public name -> defining module, resolved on first access:
#: the flat core subclasses ``BstDetector`` and must not pull the
#: baseline tools (and their vector-clock substrate) into trace analysis
_EXPORTS = {
    "BstDetector": ".bst_common",
    "Detector": ".base",
    "FlatDetector": "..core.flatcore",
    "McCChecker": ".mc_cchecker",
    "MustRma": ".must_rma",
    "NodeStats": ".base",
    "ParkMirror": ".park_mirror",
    "RmaAnalyzerLegacy": ".rma_analyzer",
}


class DetectorSpec(NamedTuple):
    """One detector, under the name each surface knows it by."""

    #: ``repro analyze/explain/serve --detector`` and ``?detector=``
    #: (None: not offered there)
    cli: Optional[str]
    #: scenario-corpus tool name (:func:`repro.scenarios.score_corpus`)
    tool: str
    #: a bar of the paper's Fig. 10, offered by the apps harness
    fig10: bool
    #: the class, an export of this package, imported on first use
    cls: str

    def load(self) -> type:
        """The class, its module imported by this package's lazy exports."""
        return getattr(sys.modules[__name__], self.cls)


DETECTORS: Tuple[DetectorSpec, ...] = (
    DetectorSpec("our", "our", True, "FlatDetector"),
    DetectorSpec("rma", "rma_analyzer", True, "RmaAnalyzerLegacy"),
    DetectorSpec("must", "must_rma", True, "MustRma"),
    DetectorSpec("mc", "mc_cchecker", False, "McCChecker"),
    DetectorSpec(None, "park_mirror", False, "ParkMirror"),
)


def _key(spec: DetectorSpec, by: str) -> Optional[str]:
    if by == "paper":
        return spec.load().name if spec.fig10 else None
    return getattr(spec, by)


def detector_names(by: str = "cli") -> Tuple[str, ...]:
    """The names one surface accepts, sorted: ``by`` is ``"cli"``,
    ``"tool"`` or ``"paper"`` (the display name)."""
    return tuple(sorted(filter(None, (_key(s, by) for s in DETECTORS))))


def detector_class(name: str, by: str = "cli") -> type:
    """The detector class a surface names ``name`` (see
    :func:`detector_names`); ValueError when it names none."""
    for spec in DETECTORS:
        if _key(spec, by) == name:
            return spec.load()
    raise ValueError(
        f"unknown detector {name!r}; have {list(detector_names(by))}")


__all__ = sorted(_EXPORTS) + ["DETECTORS", "DetectorSpec",
                              "detector_class", "detector_names"]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
