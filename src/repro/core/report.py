"""Race reports in the exact shape of the paper's Fig. 9b output.

When a data race is detected, RMA-Analyzer stops the program and prints
an error naming the access types and the source file/line of *both*
conflicting instructions, e.g.::

    Error when inserting memory access of type RMA_WRITE from file
    ./dspl.hpp:614 with already inserted interval of type RMA_WRITE
    from file ./dspl.hpp:612. The program will be exiting now with
    MPI_Abort.

Our harness records :class:`RaceReport` objects instead of aborting (so
whole-suite runs can count verdicts), but :meth:`RaceReport.message`
renders the same text and :class:`DataRaceError` is available for
abort-on-first-race mode.
"""

from __future__ import annotations

from typing import Optional

from .._fields import Fields
from ..intervals import MemoryAccess

__all__ = ["RaceReport", "DataRaceError"]


class RaceReport(Fields, frozen=True, compare=(
        "rank", "window", "stored", "new", "detector")):
    """One detected data race: the stored access and the new access.

    ``forensics`` optionally carries the ``repro-forensics-v1`` bundle
    captured at detection time (see :mod:`repro.core.forensics`).  It is
    excluded from equality/hash so two reports of the same race pair
    compare equal regardless of surrounding timeline context — verdict
    dedup and cross-path parity depend on that.
    """

    _fields = ("rank", "window", "stored", "new", "detector", "forensics")

    def __init__(self, rank: int, window: int, stored: MemoryAccess,
                 new: MemoryAccess, detector: str = "",
                 forensics: Optional[dict] = None) -> None:
        set_ = object.__setattr__
        set_(self, "rank", rank)
        set_(self, "window", window)
        set_(self, "stored", stored)
        set_(self, "new", new)
        set_(self, "detector", detector)
        set_(self, "forensics", forensics)

    @property
    def message(self) -> str:
        """The Fig. 9b error text."""
        return (
            f"Error when inserting memory access of type {self.new.type} "
            f"from file {self.new.debug} with already inserted interval of "
            f"type {self.stored.type} from file {self.stored.debug}. "
            f"The program will be exiting now with MPI_Abort."
        )

    def __str__(self) -> str:
        return self.message


class DataRaceError(RuntimeError):
    """Raised in abort-on-first-race mode (the tool's MPI_Abort path)."""

    def __init__(self, report: RaceReport) -> None:
        super().__init__(report.message)
        self.report = report
