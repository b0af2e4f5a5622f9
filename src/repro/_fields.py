"""Plain classes that compare, hash, print and pickle by their fields.

A ``@dataclass`` costs every process that defines one: ``dataclasses``
imports ``inspect`` (and with it ``ast``, ``dis`` and ``tokenize``),
and each decorated class compiles its generated methods through
``exec``.  The classes a trace analysis or the daemon loads derive
from :class:`Fields` instead and write their ``__init__`` by hand; the
rest follows from their ``_fields`` tuple, as a dataclass would have
it:

* ``==`` compares the fields of two instances of the same class (any
  other class is ``NotImplemented``); ``compare=`` names the fields
  it compares, all by default;
* a ``frozen=True`` class hashes those fields and refuses assignment
  with :class:`AttributeError`; any other class is unhashable;
* ``repr`` is ``Class(field=value, ...)`` without the ``hidden=``
  fields;
* a frozen class with ``__slots__`` pickles its fields as a list, as a
  frozen slotted dataclass does, and any other class its
  ``__dict__`` — so pickles (checkpoints) read back the same either
  way;
* :meth:`Fields.replace` is ``dataclasses.replace``.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Tuple

__all__ = ["Fields"]

_set = object.__setattr__


def _getter(names: Tuple[str, ...]):
    """A function of an instance returning its ``names`` as a tuple."""
    if len(names) > 1:
        return attrgetter(*names)
    return lambda obj: tuple(getattr(obj, name) for name in names)


def _hash(self) -> int:
    return hash(self._key(self))


def _refuse_set(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _refuse_del(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def _slot_state(self) -> list:
    return [getattr(self, name) for name in self._fields]


def _set_slot_state(self, state: list) -> None:
    for name, value in zip(self._fields, state):
        _set(self, name, value)


class Fields:
    """Base of a class described by its ``_fields`` (module docstring)."""

    __slots__ = ()
    #: the field names, in ``__init__`` order
    _fields: Tuple[str, ...] = ()

    def __init_subclass__(cls, *, frozen: bool = False,
                          compare: Tuple[str, ...] = None,
                          hidden: Tuple[str, ...] = (), **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        fields = cls._fields
        cls._key = staticmethod(_getter(fields if compare is None
                                        else compare))
        cls._shown = tuple(name for name in fields if name not in hidden)
        if frozen:
            cls.__hash__ = _hash
            cls.__setattr__ = _refuse_set
            cls.__delattr__ = _refuse_del
            if cls.__dict__.get("__slots__"):
                cls.__getstate__ = _slot_state
                cls.__setstate__ = _set_slot_state
        else:
            cls.__hash__ = None

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}"
                         for name in self._shown)
        return f"{self.__class__.__qualname__}({args})"

    def replace(self, **changes):
        """A copy with ``changes`` applied (``dataclasses.replace``)."""
        for name in self._fields:
            if name not in changes:
                changes[name] = getattr(self, name)
        return self.__class__(**changes)
