"""Per-node entity container.

The container hosts the local replicas of entities, persists their rows via
the node's persistence engine (container-managed persistence), and resolves
object references to local instances.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from .entity import Entity
from .refs import ObjectNotFound, ObjectRef

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .invocation import Invocation
    from .node import Node


class Container:
    """Hosts entity instances on one node."""

    def __init__(self, node: "Node") -> None:
        self.node = node
        self._classes: dict[str, type[Entity]] = {}
        self._instances: dict[ObjectRef, Entity] = {}
        # The node's clock, read by every entity write.
        self.clock = node.services.clock

    # ------------------------------------------------------------------
    # deployment
    # ------------------------------------------------------------------
    def deploy(self, entity_cls: type[Entity]) -> None:
        """Deploy an entity class so instances of it can be hosted."""
        if not issubclass(entity_cls, Entity):
            raise TypeError(f"{entity_cls!r} is not an Entity subclass")
        self._classes[entity_cls.class_name()] = entity_cls

    def deployed_class(self, class_name: str) -> type[Entity]:
        if class_name not in self._classes:
            raise KeyError(f"class {class_name!r} not deployed on {self.node.node_id}")
        return self._classes[class_name]

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def create(
        self,
        class_name: str,
        oid: str,
        attributes: dict[str, Any] | None = None,
    ) -> Entity:
        """Instantiate and persist a new entity (or a backup replica)."""
        entity_cls = self.deployed_class(class_name)
        ref = ObjectRef(class_name, oid)
        if ref in self._instances:
            raise KeyError(f"{ref} already exists on {self.node.node_id}")
        entity = entity_cls(oid, container=self, **(attributes or {}))
        # Keyed by the entity's own ref: a lookup with the ref the entity
        # hands out then matches by identity.
        self._instances[entity.ref] = entity
        entity.store(self.node.persistence.table("entities").insert)
        return entity

    def remove(self, ref: ObjectRef) -> None:
        """Remove an entity instance (and its persisted row)."""
        entity = self.resolve(ref)
        entity.deleted = True
        del self._instances[ref]
        table = self.node.persistence.table("entities")
        if (ref.class_name, ref.oid) in table:
            table.delete((ref.class_name, ref.oid))

    # ------------------------------------------------------------------
    # resolution
    # ------------------------------------------------------------------
    def resolve(self, ref: ObjectRef) -> Entity:
        """Return the local view of the logical object."""
        try:
            return self._instances[ref]
        except KeyError:
            raise ObjectNotFound(ref) from None

    def resolve_target(self, invocation: "Invocation") -> Entity:
        """Resolve an invocation's target into its ``entity`` slot, where
        the rest of its server-chain pass reads it."""
        try:
            entity = invocation.entity = self._instances[invocation.ref]
        except KeyError:
            raise ObjectNotFound(invocation.ref) from None
        return entity

    def has(self, ref: ObjectRef) -> bool:
        return ref in self._instances

    def instances_of(self, class_name: str) -> list[Entity]:
        """All local instances of a class (query-operation support)."""
        return [
            entity
            for ref, entity in sorted(
                self._instances.items(), key=lambda item: (item[0].class_name, item[0].oid)
            )
            if ref.class_name == class_name
        ]

    def refs(self) -> list[ObjectRef]:
        return sorted(self._instances, key=lambda r: (r.class_name, r.oid))

    def __len__(self) -> int:
        return len(self._instances)
