"""What the two cores of the paper's detector share.

The contribution has two cores with identical verdicts, forensics and
metrics: the flat core (:class:`~repro.core.flatcore.FlatDetector`,
the one every entry point runs) and the object core
(:class:`~repro.core.detector.OurDetector`, Algorithm 1 over
:class:`~repro.bst.interval_tree.IntervalBST`, the reference oracle).
:class:`OurDetectorBase` holds everything of theirs that is not a
store operation:

* the tool identity (``name``) both cores publish metrics under,
* the §6 flush generations, per (window, issuer),
* the fragment/merge counters and the ``core.insert.*`` hot counters.

A snapshot names its class, so :meth:`Detector.restore
<repro.detectors.base.Detector.restore>` refuses the other core's
before touching any state.

It imports no store and no insertion code, so loading the flat core
loads neither the node-linked AVL tree nor Algorithm 1's object-level
helpers.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from .. import obs
from ..aliasing import FilterPolicy
from ..detectors.bst_common import BstDetector

__all__ = ["COMPLETED_LOCALLY", "OurDetectorBase"]

#: sentinel flush generation: the access was completed *locally* by an
#: MPI_Wait on its request (request-based RMA); later accesses of the
#: same origin are ordered after it, other ranks' accesses are not
COMPLETED_LOCALLY = -1


class _HotCounters:
    """Counter handles of the insertion hot path, bound to one registry.

    Algorithm 1 runs once per recorded access; going through
    ``Registry.counter`` (key format + dict probe) at that frequency is
    what the <=5% metrics-on budget cannot afford.  The handles are
    cached at module level — registries are strictly per-process and
    single-threaded, and the identity check in each core rebinds after
    any ``obs.scope()`` / ``obs.reset()`` swap.
    """

    __slots__ = ("reg", "accesses", "races", "fastpath", "merges",
                 "fragments")

    def __init__(self, reg) -> None:
        self.reg = reg
        self.accesses = reg.counter("core.insert.accesses")
        self.races = reg.counter("core.insert.races")
        self.fastpath = reg.counter("core.insert.fastpath")
        self.merges = reg.counter("core.insert.merges")
        self.fragments = reg.counter("core.insert.fragments")


_HOT: Optional[_HotCounters] = None


def _bind_hot(reg) -> _HotCounters:
    global _HOT
    _HOT = _HotCounters(reg)
    return _HOT


class OurDetectorBase(BstDetector):
    """The paper's §4 detector minus its store (see the module docstring).

    Subclasses set ``store_cls`` and implement Algorithm 1 on it
    (``_record``) plus the store side of the §6 synchronization
    handling (``on_request_complete``, ``on_barrier``).
    """

    name = "Our Contribution"

    _CKPT_SKIP = BstDetector._CKPT_SKIP | {"_c_fragments", "_c_merges"}

    def __init__(self, *, enable_merge: bool = True, **kwargs) -> None:
        """``enable_merge=False`` gives the fragmentation-only ablation —
        the node-explosion variant §4.1 warns about."""
        kwargs.setdefault("filter_policy", FilterPolicy.ALIAS)
        super().__init__(**kwargs)
        self.enable_merge = enable_merge
        # current flush generation per (wid, issuer)
        self._flush_gens: Dict[Tuple[int, int], int] = {}
        # fragment/merge outcomes live in the obs registry (the former
        # hand-rolled integer attributes duplicated what the metrics
        # layer now collects); the properties below read them back
        self._k_fragments = obs.metric_key("detector.fragments",
                                           {"tool": self.name})
        self._k_merges = obs.metric_key("detector.merges",
                                        {"tool": self.name})

    def _bind_obs(self, reg) -> None:
        super()._bind_obs(reg)
        self._c_fragments = reg.counter(self._k_fragments)
        self._c_merges = reg.counter(self._k_merges)

    @property
    def fragments_created(self) -> int:
        """Fragments stored by this tool (process-registry counter)."""
        return obs.active().counter(self._k_fragments).value

    @property
    def merges_performed(self) -> int:
        """Node merges performed by this tool (process-registry counter)."""
        return obs.active().counter(self._k_merges).value

    def forensic_sync_state(self, wid: int) -> dict:
        """Epoch state plus the §6 flush generations of this window."""
        state = super().forensic_sync_state(wid)
        gens = {
            str(issuer): gen
            for (w, issuer), gen in sorted(self._flush_gens.items())
            if w == wid
        }
        if gens:
            state["flush_gens"] = gens
        return state

    # -- §6 synchronization handling -------------------------------------------

    def on_flush(self, rank: int, wid: int) -> None:
        key = (wid, rank)
        self._flush_gens[key] = self._flush_gens.get(key, 0) + 1

    def _flushed(self, wid: int, origin, flush_gen: int) -> bool:
        """Has the issuer of a stored RMA access flushed it since — every
        rank of an :data:`~repro.intervals.combine.OriginSet`?"""
        gens = self._flush_gens
        if type(origin) is tuple:
            return all(g < gens.get((wid, r), 0) for r, g in origin)
        return flush_gen < gens.get((wid, origin), 0)
