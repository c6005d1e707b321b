"""REACH001 fixture: a package, its checkout's entry trees, and its tests."""

from ._lazy import reexport

__getattr__, __dir__, __all__ = reexport(globals(), {"lazy": ("exported",)})
