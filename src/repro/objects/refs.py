"""Logical object references.

Application data are encapsulated by objects and their relationships
(§1.4).  Relationships are stored as :class:`ObjectRef` values — the
analogue of an EJB handle: a (class name, object id) pair that the local
container resolves to its *local view* of the logical object, which in a
replicated setting may be a possibly-stale backup replica.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any


@dataclass(frozen=True, eq=False)
class ObjectRef:
    """Identity of a logical distributed object.

    Immutable, so its hash is fixed at construction: every layer keys a
    ``dict`` by refs (container, location service, replica placement), and
    a lookup costs one attribute read instead of building and hashing a
    tuple.  Equality is by value, with the identity test first — layers
    that pass one instance along never compare the strings.
    """

    __slots__ = ("class_name", "oid", "_hash")

    class_name: str
    oid: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.class_name, self.oid)))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: Any) -> bool:
        if other is self:
            return True
        if other.__class__ is self.__class__:
            return self.oid == other.oid and self.class_name == other.class_name
        return NotImplemented

    def __reduce__(self) -> tuple[Any, ...]:
        # Rebuild from the two fields: string hashes differ between
        # interpreter processes, so the stored hash must not travel.
        return (self.__class__, (self.class_name, self.oid))

    def __str__(self) -> str:
        return f"{self.class_name}#{self.oid}"


class ObjectNotFound(KeyError):
    """Raised when a reference cannot be resolved to any local replica."""

    def __init__(self, ref: ObjectRef) -> None:
        super().__init__(str(ref))
        self.ref = ref
