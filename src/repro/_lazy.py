"""Lazily resolved package exports (PEP 562).

A package lists its public names with the module that defines each;
the first access imports that module.  This keeps ``import
repro.<anything>`` from importing the simulator and numpy, which trace
analysis (``repro analyze``, ``repro serve``) never runs.
"""

from __future__ import annotations

import sys
from typing import Callable, Dict, Tuple


def lazy_exports(package: str, exports: Dict[str, str]
                 ) -> Tuple[Callable, Callable]:
    """``__getattr__`` and ``__dir__`` for ``package``.

    ``exports`` maps each public name to the module defining it,
    relative to ``package`` (``".simulator"``, ``"..core.detector"``).
    ``package`` may also name a plain module, whose siblings are then
    ``"..sibling"``.  A resolved name is cached in its namespace.
    """

    def __getattr__(name: str):
        try:
            module = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        # the import statement's path (not importlib.import_module), so
        # ``python -X importtime`` attributes the module's own cost
        level = len(module) - len(module.lstrip("."))
        value = getattr(__import__(module[level:], {"__package__": package},
                                   None, (name,), level), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__():
        return sorted(set(vars(sys.modules[package])) | set(exports))

    return __getattr__, __dir__
