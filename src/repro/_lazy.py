"""Lazily resolved package exports (PEP 562).

A package lists its public names with the module that defines each;
the first access imports that module.  This keeps ``import
repro.<anything>`` from importing the simulator and numpy, which trace
analysis (``repro analyze``, ``repro serve``) never runs.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Callable, Dict, Tuple


def lazy_exports(package: str, exports: Dict[str, str]
                 ) -> Tuple[Callable, Callable]:
    """``__getattr__`` and ``__dir__`` for ``package``.

    ``exports`` maps each public name to the module defining it,
    relative to ``package`` (``".simulator"``, ``"..core.detector"``).
    A resolved name is cached in the package namespace.
    """

    def __getattr__(name: str):
        try:
            module = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        value = getattr(import_module(module, package), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__():
        return sorted(set(vars(sys.modules[package])) | set(exports))

    return __getattr__, __dir__
