"""Logical object references.

Application data are encapsulated by objects and their relationships
(§1.4).  Relationships are stored as :class:`ObjectRef` values — the
analogue of an EJB handle: a (class name, object id) pair that the local
container resolves to its *local view* of the logical object, which in a
replicated setting may be a possibly-stale backup replica.

A ref is *interned*: the process holds one instance per (class name, object
id), so equal refs are the same object and ``==`` and ``hash`` are
``object``'s identity slots, run in C.  Every layer keys a ``dict`` by
refs (container, location service, replica placement, access trackers), so
each of those lookups hashes and compares no strings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

#: The one instance of each ref, by its two fields.  Refs are never
#: dropped: a process names a bounded set of objects, and each entity
#: holds its ref for its whole life anyway.
_interned: dict[tuple[str, str], "ObjectRef"] = {}


@dataclass(frozen=True, eq=False, init=False)
class ObjectRef:
    """Identity of a logical distributed object.

    ``ObjectRef(class_name, oid)`` returns the interned instance, building
    it on first use; two threads that build the same ref get that one
    instance, because ``dict.setdefault`` keeps whichever arrived first.
    Pickle, a shallow copy and a deep copy (the ``copy`` module's two
    functions) rebuild through the constructor, so they return the
    interned instance too.  A ref is not a tuple and never equals one.
    """

    __slots__ = ("class_name", "oid")

    class_name: str
    oid: str

    def __new__(cls, class_name: str, oid: str) -> "ObjectRef":
        ref = _interned.get((class_name, oid))
        if ref is None:
            ref = object.__new__(cls)
            object.__setattr__(ref, "class_name", class_name)
            object.__setattr__(ref, "oid", oid)
            ref = _interned.setdefault((class_name, oid), ref)
        return ref

    def __reduce__(self) -> tuple[Any, ...]:
        # Rebuild from the two fields, through the interning constructor.
        return (self.__class__, (self.class_name, self.oid))

    def __str__(self) -> str:
        return f"{self.class_name}#{self.oid}"


class ObjectNotFound(KeyError):
    """Raised when a reference cannot be resolved to any local replica."""

    def __init__(self, ref: ObjectRef) -> None:
        super().__init__(str(ref))
        self.ref = ref
