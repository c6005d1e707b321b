"""Entities — the business objects ("entity beans") of an application.

Entities hold named attributes, expose ``get_x``/``set_x`` accessors (the
EJB naming convention the replication service uses to detect writes, §4.3),
carry a version counter implementing the paper's ``VersionedEntity``
interface (§4.2.1), and participate in:

* **undo logging** — every attribute write registers an undo action with
  the current transaction so rollback restores the previous state;
* **access tracking** — while the constraint consistency manager validates
  a constraint it installs an :class:`ObjectAccessTracker`; every attribute
  read records the touched entity so the CCMgr can afterwards ask the
  replication manager which accessed objects were possibly stale (Fig. 4.4);
* **dirty tracking** — writes performed inside a transaction are collected
  in the transaction context so the replication interceptor knows which
  entities to propagate.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable

from .refs import ObjectRef
from .values import copy_value

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .container import Container


class ObjectAccessTracker:
    """Records the entities touched during one constraint validation."""

    def __init__(self) -> None:
        self.accessed: list["Entity"] = []
        self._seen: set[tuple[str, str]] = set()

    def record(self, entity: "Entity") -> None:
        key = (entity.class_name(), entity.oid)
        if key not in self._seen:
            self._seen.add(key)
            self.accessed.append(entity)


_tracker_stack: list[ObjectAccessTracker] = []


def push_tracker(tracker: ObjectAccessTracker) -> None:
    _tracker_stack.append(tracker)


def pop_tracker() -> ObjectAccessTracker:
    return _tracker_stack.pop()


def _record_access(entity: "Entity") -> None:
    if _tracker_stack:
        _tracker_stack[-1].record(entity)


def _accessors(field: str) -> tuple[Any, Any]:
    """The ``get_<field>`` / ``set_<field>`` pair of one declared field."""

    def getter(self: "Entity") -> Any:
        return self._get(field)

    def setter(self: "Entity", value: Any) -> None:
        self._set(field, value)

    getter.__name__ = f"get_{field}"
    setter.__name__ = f"set_{field}"
    return getter, setter


class Entity:
    """Base class for application business objects.

    Subclasses declare their attributes via the ``fields`` class attribute
    (name → default) and add business methods on top.  Attribute access
    goes through :meth:`_get`/:meth:`_set`, which implement tracking, undo
    logging and version bumping; ``get_x()``/``set_x(v)`` accessors are
    synthesised for every declared field *when the class is created*, so
    ``fields`` must be declared in the class body — a field added to the
    mapping afterwards gets no accessor.  A method the class (or a base,
    like :meth:`get_version`) already defines under an accessor's name
    wins.

    :attr:`ref` is the entity's one :class:`ObjectRef`, made with it.
    """

    fields: dict[str, Any] = {}

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        for field in cls.fields:
            for accessor in _accessors(field):
                if not hasattr(cls, accessor.__name__):
                    accessor.__qualname__ = f"{cls.__qualname__}.{accessor.__name__}"
                    setattr(cls, accessor.__name__, accessor)

    def __init__(
        self,
        oid: str,
        container: "Container | None" = None,
        **attributes: Any,
    ) -> None:
        self.oid = oid
        self.ref = ObjectRef(self.class_name(), oid)
        self.container = container
        self._attributes: dict[str, Any] = {
            name: copy_value(default) for name, default in type(self).fields.items()
        }
        for name, value in attributes.items():
            if name not in self._attributes:
                raise AttributeError(
                    f"{type(self).__name__} has no field {name!r}"
                )
            self._attributes[name] = value
        self.version = 0
        self.last_update_time = self._now()
        # Expected seconds between updates; used by
        # ``estimated_latest_version`` for freshness criteria (§4.2.1).
        self.expected_update_interval: float | None = None
        self.deleted = False

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    @classmethod
    def class_name(cls) -> str:
        return cls.__name__

    # ------------------------------------------------------------------
    # attribute access
    # ------------------------------------------------------------------
    def _get(self, name: str) -> Any:
        """Read an attribute, recording the access for threat detection."""
        self._require_field(name)
        _record_access(self)
        return self._attributes[name]

    def _set(self, name: str, value: Any) -> None:
        """Write an attribute with undo logging and version bump."""
        self._require_field(name)
        _record_access(self)
        old_value = self._attributes[name]
        old_version = self.version
        old_update_time = self.last_update_time
        tx = self._current_tx()
        if tx is not None:

            def undo() -> None:
                self._attributes[name] = old_value
                self.version = old_version
                self.last_update_time = old_update_time

            tx.log_undo(undo)
            written: set[Entity] = tx.context.setdefault("written_entities", set())
            written.add(self)
        self._attributes[name] = value
        self.version += 1
        self.last_update_time = self._now()

    def _require_field(self, name: str) -> None:
        if name not in self._attributes:
            raise AttributeError(
                f"{type(self).__name__} has no field {name!r}"
            )

    # ------------------------------------------------------------------
    # state snapshots (used by replication)
    # ------------------------------------------------------------------
    def state(self) -> dict[str, Any]:
        """Serializable snapshot of the entity's attributes.

        A value copy (:func:`~repro.objects.values.copy_value`): mutating
        the snapshot never changes the entity, nor the other way round.
        """
        return copy_value(self._attributes)

    def store(self, write: Callable[[tuple[str, str], dict[str, Any]], None]) -> None:
        """Hand the attributes to ``write(key, attributes)`` under the row
        key ``(class name, oid)``.

        ``write`` is a copying table writer (``Table.put`` or
        ``Table.insert``), so the stored row is the one copy made, not a
        copy of a :meth:`state` snapshot.
        """
        write((self.ref.class_name, self.oid), self._attributes)

    def apply_state(
        self, state: dict[str, Any], version: int | None = None
    ) -> dict[str, Any]:
        """Overwrite attributes from a snapshot (update propagation).

        The attributes are replaced wholesale by a copy of ``state``, never
        changed in place, so the returned dict — the one replaced — is held
        by nobody else: a caller may keep it as the previous state instead
        of taking a :meth:`state` copy first.
        """
        replaced, self._attributes = self._attributes, copy_value(state)
        if version is not None:
            self.version = version
        self.last_update_time = self._now()
        return replaced

    # ------------------------------------------------------------------
    # VersionedEntity (§4.2.1)
    # ------------------------------------------------------------------
    def get_version(self) -> int:
        return self.version

    def estimated_latest_version(self) -> int:
        """The version this object would expect to have by now.

        If the object is usually updated every *n* seconds and the last
        update was *k·n* seconds ago, the estimate is ``version + k``.
        """
        if not self.expected_update_interval:
            return self.version
        elapsed = self._now() - self.last_update_time
        missed = int(elapsed / self.expected_update_interval)
        return self.version + max(0, missed)

    # ------------------------------------------------------------------
    # navigation helpers for business code and constraints
    # ------------------------------------------------------------------
    def resolve(self, ref: ObjectRef | None) -> "Entity | None":
        """Resolve a reference through the local container.

        Returns the local view of the logical object (possibly a stale
        backup replica).  ``None`` passes through.  Raises when the object
        has no reachable replica — the NCC case.
        """
        if ref is None:
            return None
        if isinstance(ref, Entity):
            # Direct entity references occur in unwired (single-process)
            # object graphs; the local view is the entity itself.
            _record_access(ref)
            return ref
        if self.container is None:
            raise RuntimeError(
                f"{self.ref} is not attached to a container; cannot resolve {ref}"
            )
        entity = self.container.resolve(ref)
        _record_access(entity)
        return entity

    def resolve_all(self, refs: Iterable[ObjectRef]) -> list["Entity"]:
        return [entity for entity in (self.resolve(ref) for ref in refs) if entity]

    def invoke(self, ref: ObjectRef, method: str, *args: Any) -> Any:
        """Invoke a method on another logical object *through the
        middleware* so that interception (and therefore constraint
        validation) applies — the AOP-provided path of §4.2.4.

        Calling a method on a resolved entity directly instead reproduces
        the un-intercepted internal-call problem (call 7 in Fig. 4.5).
        """
        if self.container is None:
            raise RuntimeError(f"{self.ref} is not attached to a container")
        return self.container.node.services.invoke_local(ref, method, args)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _now(self) -> float:
        if self.container is not None:
            return self.container.clock.now
        return 0.0

    def _current_tx(self) -> Any:
        if self.container is None:
            return None
        txmgr = self.container.node.services.txmgr
        current = txmgr.current
        if current is not None and current.is_active:
            return current
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.class_name()} {self.oid} v{self.version}>"
