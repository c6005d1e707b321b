"""Naming and location services (JNDI analogue).

The naming service binds names to object references; the location service
records the *home node* of every logical object — the node with strong
ownership of the object (§1.4), which also serves as the designated primary
under the P4 replication protocol in a healthy system.
"""

from __future__ import annotations

from ..net import NodeId
from .refs import ObjectNotFound, ObjectRef


class NamingService:
    """Name → object reference bindings."""

    def __init__(self) -> None:
        self._bindings: dict[str, ObjectRef] = {}

    def bind(self, name: str, ref: ObjectRef) -> None:
        if name in self._bindings:
            raise KeyError(f"name {name!r} already bound")
        self._bindings[name] = ref

    def lookup(self, name: str) -> ObjectRef:
        if name not in self._bindings:
            raise KeyError(f"name {name!r} not bound")
        return self._bindings[name]

    def names(self) -> list[str]:
        return sorted(self._bindings)


class LocationService:
    """Object reference → home node."""

    def __init__(self) -> None:
        self._homes: dict[ObjectRef, NodeId] = {}

    def register(self, ref: ObjectRef, home: NodeId) -> None:
        self._homes[ref] = home

    def unregister(self, ref: ObjectRef) -> None:
        self._homes.pop(ref, None)

    def home_of(self, ref: ObjectRef) -> NodeId:
        try:
            return self._homes[ref]
        except KeyError:
            raise ObjectNotFound(ref) from None

    def knows(self, ref: ObjectRef) -> bool:
        return ref in self._homes

    def refs(self) -> list[ObjectRef]:
        return list(self._homes)
