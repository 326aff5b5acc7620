"""Lazy package exports (PEP 562), the one helper every ``repro`` package uses.

A package ``__init__`` maps each public name to the submodule that defines
it and installs the module-level ``__getattr__``/``__dir__`` returned here::

    _LAZY = {"Simulator": "repro.sim.kernel", ...}
    __all__ = list(_LAZY)
    __getattr__, __dir__ = lazy_exports(globals(), _LAZY)

Importing the package then imports none of its submodules.  The first
``pkg.Name`` or ``from pkg import Name`` imports the defining submodule and
stores the value in the package's globals, so later lookups never reach
``__getattr__``.  A run thus pays start-up only for the subsystems it uses
(DESIGN.md, "Start-up: packages export lazily").
"""

from __future__ import annotations

import sys
from typing import Any, Callable, Dict, List, Mapping, Tuple


def lazy_exports(
    namespace: Dict[str, Any], table: Mapping[str, str]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` for the package whose globals are
    ``namespace``; ``table`` maps each exported name to its module."""
    package = namespace["__name__"]

    def __getattr__(name: str) -> Any:
        try:
            module = table[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        # ``__import__``, not ``importlib.import_module``: only the former
        # goes through the path that ``-X importtime`` reports.
        __import__(module)
        value = getattr(sys.modules[module], name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(table))

    return __getattr__, __dir__
