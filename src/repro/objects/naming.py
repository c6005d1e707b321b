"""Location service.

The location service records the *home node* of every logical object —
the node with strong ownership of the object (§1.4), which also serves as
the designated primary under the P4 replication protocol in a healthy
system.  Clients reach an object by its
:class:`~repro.objects.refs.ObjectRef`, not by a bound name.
"""

from __future__ import annotations

from ..net import NodeId
from .refs import ObjectNotFound, ObjectRef


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
