"""Package re-exports that load a submodule when a name is first used.

Every package ``__init__`` under ``repro`` declares its public names once,
as a ``{submodule: names}`` table, and binds what :func:`reexport` returns::

    __getattr__, __dir__, __all__ = reexport(globals(), {
        "store": ("Journal", "PersistenceEngine"),
    })

Importing the package then runs no submodule: ``from package import Name``,
``package.Name`` and ``from package import *`` import the one submodule
that defines ``Name`` (PEP 562) and cache the object in the package's
globals, so a process loads the modules it uses and not the catalogue.
"""

from __future__ import annotations

import sys
from typing import Any, Callable, Mapping, Sequence


def _load(module: str) -> Any:
    # The builtin, not importlib.import_module: ``python -X importtime``
    # times only imports that go through it, and that listing is how the
    # set of modules a run loads is read.
    __import__(module)
    return sys.modules[module]


def reexport(
    namespace: dict[str, Any],
    table: Mapping[str, Sequence[str]],
    submodules: Sequence[str] = (),
) -> tuple[Callable[[str], Any], Callable[[], list[str]], list[str]]:
    """``(__getattr__, __dir__, __all__)`` for the package whose globals
    are ``namespace``: each name in ``table`` resolves to the attribute of
    that name in its submodule, each of ``submodules`` to the module."""
    package = namespace["__name__"]
    origin = {name: submodule for submodule, names in table.items() for name in names}
    if len(origin) != sum(len(names) for names in table.values()):
        raise ValueError(f"{package}: a name is re-exported from two submodules")
    exported = sorted([*origin, *submodules])

    def __getattr__(name: str) -> Any:
        if name in origin:
            value = getattr(_load(f"{package}.{origin[name]}"), name)
        elif name in submodules:
            value = _load(f"{package}.{name}")
        else:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *exported})

    return __getattr__, __dir__, exported
