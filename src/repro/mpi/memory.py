"""Per-rank virtual memory for the simulated MPI processes.

Each simulated rank owns an :class:`AddressSpace`: a bump allocator of
named :class:`Region` objects backed by numpy byte arrays.  Regions have
a *kind* — ``STACK``, ``HEAP`` or ``WINDOW`` — because two detectors in
this reproduction care about provenance:

* the MUST-RMA model inherits ThreadSanitizer's blind spot: accesses to
  **stack** arrays are not instrumented (the cause of the paper's 15
  false negatives, §5.2);
* the alias filter (:mod:`repro.aliasing`) lets RMA-Analyzer-family
  detectors skip local accesses to regions that can never alias RMA
  memory.

Addresses are plain integers in a per-rank space; a guard gap is kept
between regions so off-by-one intervals never silently alias a
neighbouring region.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Dict, List, Optional

from .._fields import Fields
from ..intervals import Interval
from .errors import RmaUsageError

__all__ = ["RegionKind", "RegionInfo", "Region", "AddressSpace"]

_GUARD = 64  # unmapped bytes between regions

if TYPE_CHECKING:
    import numpy as np


def _zeros(size: int) -> np.ndarray:
    # numpy is imported on first allocation: trace analysis uses the
    # region *types* below but never allocates simulated memory
    import numpy as np

    return np.zeros(size, dtype=np.uint8)


class RegionKind(enum.Enum):
    STACK = "stack"
    HEAP = "heap"
    WINDOW = "window"


class RegionInfo(Fields, frozen=True):
    """Event-time snapshot of the provenance facts detectors filter on."""

    __slots__ = _fields = ("kind", "may_alias_rma")

    def __init__(self, kind: RegionKind, may_alias_rma: bool) -> None:
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "may_alias_rma", may_alias_rma)

    @property
    def is_stack(self) -> bool:
        return self.kind is RegionKind.STACK

    @property
    def is_window(self) -> bool:
        return self.kind is RegionKind.WINDOW


class Region(Fields, hidden=("data",)):
    """A named, contiguous allocation in one rank's address space."""

    _fields = ("name", "kind", "base", "size", "rank", "data",
               "may_alias_rma")

    def __init__(self, name: str, kind: RegionKind, base: int, size: int,
                 rank: int, data: np.ndarray,
                 may_alias_rma: bool = False) -> None:
        self.name = name
        self.kind = kind
        self.base = base
        self.size = size
        self.rank = rank
        self.data = data
        # set by the simulator when the region is (part of) an RMA
        # window or has been used as the local buffer of a one-sided
        # call; the alias filter reads it
        self.may_alias_rma = may_alias_rma

    @property
    def interval(self) -> Interval:
        return Interval(self.base, self.base + self.size)

    @property
    def info(self) -> "RegionInfo":
        return RegionInfo(self.kind, self.may_alias_rma)

    def sub_interval(self, offset: int, nbytes: int) -> Interval:
        """Address interval of ``nbytes`` at ``offset`` inside the region."""
        if offset < 0 or nbytes <= 0 or offset + nbytes > self.size:
            raise RmaUsageError(
                f"access [{offset}, {offset + nbytes}) outside region "
                f"'{self.name}' of size {self.size} (rank {self.rank})"
            )
        return Interval(self.base + offset, self.base + offset + nbytes)

    def view(self, dtype=None) -> np.ndarray:
        """The region's backing store reinterpreted as ``dtype`` (bytes)."""
        return self.data.view(dtype if dtype is not None else self.data.dtype)


class AddressSpace:
    """Bump allocator of regions for one rank."""

    def __init__(self, rank: int, base: int = 0x1000) -> None:
        self.rank = rank
        self._next = base
        self._regions: List[Region] = []
        self._by_name: Dict[str, Region] = {}

    def alloc(self, name: str, size: int, kind: RegionKind) -> Region:
        """Allocate ``size`` zeroed bytes under ``name``."""
        if size <= 0:
            raise RmaUsageError(f"cannot allocate {size} bytes for '{name}'")
        if name in self._by_name:
            raise RmaUsageError(f"region '{name}' already exists on rank {self.rank}")
        region = Region(
            name=name,
            kind=kind,
            base=self._next,
            size=size,
            rank=self.rank,
            data=_zeros(size),
        )
        self._next += size + _GUARD
        self._regions.append(region)
        self._by_name[name] = region
        return region

    def free(self, region: Region) -> None:
        """Release a region (addresses are never reused — debug-friendly)."""
        if self._by_name.get(region.name) is not region:
            raise RmaUsageError(
                f"double free or foreign region '{region.name}' on rank {self.rank}"
            )
        del self._by_name[region.name]
        self._regions.remove(region)

    def __getitem__(self, name: str) -> Region:
        return self._by_name[name]

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def regions(self) -> List[Region]:
        return list(self._regions)

    def region_at(self, addr: int) -> Optional[Region]:
        """The region containing address ``addr``, if any."""
        for region in self._regions:
            if addr in region.interval:
                return region
        return None
