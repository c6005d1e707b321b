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


def _flat(container: Any) -> bool:
    """Whether a ``list`` or plain ``dict`` holds only immutable values."""
    if type(container) is dict:
        return all(map(_immutable, container)) and all(
            map(_immutable, container.values())
        )
    return type(container) is list and all(map(_immutable, container))


def copy_value(value: Any) -> Any:
    """A copy equal to, and as independent as, a deep copy of ``value``.

    Almost every state and row is a plain ``dict`` of immutable keys and
    values, for which a shallow copy already is a deep one.  A threat row
    also holds a list and a plain dict of such values, one level down:
    those are shallow-copied in turn.  Anything else — deeper nesting, a
    ``dict`` or ``list`` subclass, a container reachable twice, a cycle —
    is left to the standard library's ``deepcopy``.
    """
    if type(value) is dict:
        # Testing the leaf types inline spares a call per key and per item
        # on the six copies a replicated write makes.
        leaves = _LEAVES
        nested: list[tuple[Any, Any]] = []
        for key, item in value.items():
            if type(item) not in leaves and not _immutable(item):
                # Copying a container met twice on its own each time would
                # lose the sharing a deep copy keeps.
                if not _flat(item) or any(item is seen for _, seen in nested):
                    break
                nested.append((key, item))
            if type(key) not in leaves and not _immutable(key):
                break
        else:
            copied = value.copy()
            for key, item in nested:
                copied[key] = item.copy()
            return copied
    return copy.deepcopy(value)
