"""The recorder-side fault: a trace writer that dies mid-write.

:class:`WriterCrash`, passed as the ``fault_hook`` of a trace writer,
raises :class:`SimulatedWriterCrash` after a chosen chunk flush (or at
close), modelling a recorder that dies mid-write.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "SimulatedWriterCrash",
    "WriterCrash",
]


class SimulatedWriterCrash(RuntimeError):
    """Raised by :class:`WriterCrash` to model a recorder dying mid-write."""


@dataclass
class WriterCrash:
    """Trace-writer ``fault_hook`` that dies after ``after_chunks`` flushes.

    With ``stage="close"`` the crash happens during finalize instead —
    after every chunk hit disk but before the trailer and the atomic
    rename, the nastiest recorder failure to clean up after.
    """

    after_chunks: int = 1
    stage: str = "chunk"
    fired: bool = field(default=False, compare=False)

    def __call__(self, stage: str, n: int) -> None:
        if self.fired:
            return
        if stage == self.stage and (stage == "close"
                                    or n >= self.after_chunks):
            self.fired = True
            raise SimulatedWriterCrash(
                f"injected recorder crash at {stage} {n}"
            )
