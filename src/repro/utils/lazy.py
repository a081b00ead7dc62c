"""Import-on-use re-exports for package ``__init__`` modules (PEP 562).

A package ``__init__`` that eagerly imports everything it re-exports makes
``import repro.gpu`` pay for the whole tower above it: runner, service,
telemetry and analysis.  Instead, each package declares which submodule
defines each public name, and :func:`lazy_exports` supplies the module
``__getattr__`` that imports that submodule on first access::

    if TYPE_CHECKING:  # static view for type checkers and editors
        from repro.cache.l1 import L1DCache

    __all__, __getattr__, __dir__ = lazy_exports(__name__, {
        "repro.cache.l1": ("L1DCache",),
    })

Importing a package therefore loads only the package itself;
``from package import name`` and ``package.name`` load the one submodule
that defines ``name`` (and what that submodule imports).
"""

from __future__ import annotations

import importlib
import sys
from collections.abc import Callable, Mapping, Sequence


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> tuple[list[str], Callable[[str], object], Callable[[], list[str]]]:
    """``__all__``, ``__getattr__`` and ``__dir__`` for ``package``.

    ``exports`` maps each defining submodule to the names it contributes;
    ``__all__`` lists them in declaration order.  A resolved name is
    cached in the package's namespace, so only its first access goes
    through ``__getattr__``.
    """
    origin = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        module = origin.get(name)
        if module is None:
            # PEP 562: ``from package import submodule`` and ``hasattr``
            # rely on exactly this exception type.
            raise AttributeError(f"module {package!r} has no attribute {name!r}")  # noqa: REP003 - PEP 562 requires AttributeError
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted({*vars(sys.modules[package]), *origin})

    return list(origin), __getattr__, __dir__
