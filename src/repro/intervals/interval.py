"""Byte-address intervals.

All detectors in this package reason about *consecutive* byte ranges of a
process-local virtual address space (the paper only considers consecutive
accesses: "all the addresses in the interval are accessed").  We represent
a range as a half-open interval ``[lo, hi)`` of non-negative integers so
that adjacency and intersection tests are exact and unambiguous:

* ``[2, 5)`` and ``[5, 9)`` are *adjacent* (mergeable, non-overlapping),
* ``[2, 5)`` and ``[4, 9)`` *overlap* on ``[4, 5)``.

The paper's figures use inclusive notation (``[2...12]``); helpers
:func:`Interval.from_inclusive` / :meth:`Interval.to_inclusive` convert.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

from .._fields import Fields

__all__ = ["Interval"]

_set = object.__setattr__


class Interval(Fields, frozen=True):
    """A half-open byte range ``[lo, hi)`` with ``lo < hi``.

    Instances are immutable, hashable, and totally ordered by
    ``(lo, hi)`` which is the order the interval BSTs rely on.
    """

    __slots__ = _fields = ("lo", "hi")

    def __init__(self, lo: int, hi: int) -> None:
        if not isinstance(lo, int) or not isinstance(hi, int):
            raise TypeError(f"interval bounds must be ints, got {lo!r}, {hi!r}")
        if lo < 0:
            raise ValueError(f"negative address {lo}")
        if lo >= hi:
            raise ValueError(f"empty or inverted interval [{lo}, {hi})")
        _set(self, "lo", lo)
        _set(self, "hi", hi)

    # -- ordering by (lo, hi) -------------------------------------------

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return (self.lo, self.hi) < (other.lo, other.hi)
        return NotImplemented

    def __le__(self, other):
        if other.__class__ is self.__class__:
            return (self.lo, self.hi) <= (other.lo, other.hi)
        return NotImplemented

    def __gt__(self, other):
        if other.__class__ is self.__class__:
            return (self.lo, self.hi) > (other.lo, other.hi)
        return NotImplemented

    def __ge__(self, other):
        if other.__class__ is self.__class__:
            return (self.lo, self.hi) >= (other.lo, other.hi)
        return NotImplemented

    # -- constructors --------------------------------------------------

    @classmethod
    def from_inclusive(cls, first: int, last: int) -> "Interval":
        """Build from the paper's inclusive ``[first...last]`` notation."""
        return cls(first, last + 1)

    @classmethod
    def point(cls, addr: int, size: int = 1) -> "Interval":
        """An access of ``size`` bytes starting at ``addr``."""
        return cls(addr, addr + size)

    # -- basic queries --------------------------------------------------

    def to_inclusive(self) -> Tuple[int, int]:
        """Return ``(first, last)`` inclusive bounds (paper notation)."""
        return self.lo, self.hi - 1

    def __len__(self) -> int:
        return self.hi - self.lo

    def __contains__(self, addr: int) -> bool:
        return self.lo <= addr < self.hi

    def contains_interval(self, other: "Interval") -> bool:
        """True when ``other`` lies fully inside ``self``."""
        return self.lo <= other.lo and other.hi <= self.hi

    def overlaps(self, other: "Interval") -> bool:
        """True when the two ranges share at least one byte."""
        return self.lo < other.hi and other.lo < self.hi

    def is_adjacent(self, other: "Interval") -> bool:
        """True when the ranges touch without overlapping."""
        return self.hi == other.lo or other.hi == self.lo

    def touches(self, other: "Interval") -> bool:
        """Overlapping or adjacent (i.e. their union is one interval)."""
        return self.lo <= other.hi and other.lo <= self.hi

    # -- set-like algebra ------------------------------------------------

    def intersection(self, other: "Interval") -> Optional["Interval"]:
        """The shared range, or ``None`` when disjoint."""
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        return Interval(lo, hi) if lo < hi else None

    def union(self, other: "Interval") -> "Interval":
        """Union of two *touching* intervals (raises otherwise)."""
        if not self.touches(other):
            raise ValueError(f"cannot union disjoint intervals {self} and {other}")
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def difference(self, other: "Interval") -> Tuple[Optional["Interval"], Optional["Interval"]]:
        """``self \\ other`` as ``(left_part, right_part)`` (either may be None).

        This is the geometric half of the paper's fragmentation step: the
        left part is ``l_frag`` and the right part is ``r_frag`` when
        ``self`` is the stored access and ``other`` the new one (Fig. 6).
        """
        left = Interval(self.lo, other.lo) if self.lo < other.lo else None
        right = Interval(other.hi, self.hi) if other.hi < self.hi else None
        if not self.overlaps(other):
            return (self, None)
        return (left, right)

    def split_at(self, *cuts: int) -> Iterator["Interval"]:
        """Yield the sub-intervals delimited by the in-range ``cuts``."""
        points = sorted({c for c in cuts if self.lo < c < self.hi})
        lo = self.lo
        for c in points:
            yield Interval(lo, c)
            lo = c
        yield Interval(lo, self.hi)

    def shift(self, delta: int) -> "Interval":
        """Translate by ``delta`` bytes (used to map window offsets to addresses)."""
        return Interval(self.lo + delta, self.hi + delta)

    # -- display ---------------------------------------------------------

    def __str__(self) -> str:  # paper-style inclusive rendering
        first, last = self.to_inclusive()
        return f"[{first}]" if first == last else f"[{first}...{last}]"
