"""PEP 562 lazy attributes for the package ``__init__`` modules.

A package lists its public names next to the modules that define them;
each name is imported on first access, so importing the package loads
only what its eager imports load.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable


def lazy_attributes(
    package: str, exports: dict[str, str]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """The ``__getattr__`` and ``__dir__`` of ``package``.

    ``exports`` maps each lazily resolved name to its defining module.
    A resolved name is stored in the package, so later lookups skip the
    hook.
    """
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> Any:
        module = exports.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(namespace["__all__"]))

    return __getattr__, __dir__
