"""Value copies of entity state and persisted rows.

Entities hand out snapshots of their attributes and tables store and
return rows *by value*: neither side may see the other's later mutations.
:func:`copy_value` is the one place that copy is made.
"""

from __future__ import annotations

import copy
from typing import Any

from .refs import ObjectRef

# Exact types (no subclasses) whose instances cannot change, so a copy may
# share them with the original.
_LEAVES = frozenset(
    {type(None), bool, int, float, complex, str, bytes, ObjectRef}
)


def _immutable(value: Any) -> bool:
    kind = type(value)
    return kind in _LEAVES or (
        (kind is tuple or kind is frozenset) and all(map(_immutable, value))
    )


def copy_value(value: Any) -> Any:
    """A copy equal to, and as independent as, a deep copy of ``value``.

    Almost every state and row is a plain ``dict`` of immutable keys and
    values, for which a shallow copy already is a deep one.  Anything else
    — a list or nested dict inside, a ``dict`` subclass, an aliased or
    cyclic structure — is left to the standard library's ``deepcopy``.
    """
    if type(value) is dict:
        # Testing the leaf types inline spares a call per key and per item
        # on the nine copies a replicated write makes.
        leaves = _LEAVES
        for key, item in value.items():
            if type(item) not in leaves and not _immutable(item):
                break
            if type(key) not in leaves and not _immutable(key):
                break
        else:
            return value.copy()
    return copy.deepcopy(value)
