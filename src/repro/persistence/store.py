"""Cost-charged in-memory persistence (MySQL/CMP analogue).

Each node owns a :class:`PersistenceEngine` holding named key-value tables.
Every access charges the simulated clock per the cost model — persistence
cost is what dominates create/delete throughput in Fig. 5.1/5.4 and threat
storage cost in the degraded-mode measurements, so the engine accounts for
it explicitly.  Every mutation is counted and the last few are kept in a
:class:`Journal` for introspection, a rollback's :meth:`Table.restore`
included.  Nothing is replayed from the journal: a rollback's images live
in the transaction's undo map, and consistency threats and replica state
history in tables and in :class:`StateHistory`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Iterator, Mapping, NamedTuple

# The one import that reaches *up* a layer: the helper must know the frozen
# ``ObjectRef``.  ``objects.values`` imports nothing but ``objects.refs``, so
# it is complete by the time ``objects.node`` pulls this module in.
from ..objects.values import LEAVES, copy_value
from ..sim import CostLedger, SimClock, charger


#: Entries a :class:`Journal` retains.  Short on purpose: the tail is all
#: young objects, and every young-generation collection walks it.
JOURNAL_TAIL = 32


class JournalEntry(NamedTuple):
    """One recorded mutation; a tuple, so building one costs no
    ``__init__`` and assigning a field raises ``AttributeError``."""

    sequence: int
    timestamp: float
    table: str
    operation: str
    key: Any
    value: Any = None


class Journal:
    """Every mutation counted, the last :data:`JOURNAL_TAIL` retained.

    ``len()`` is the number of entries ever recorded, which is also the
    newest entry's ``sequence``.  Iteration yields the retained tail,
    oldest first; an index names a position in the whole log (``[-1]`` is
    the newest entry) and raises ``IndexError`` once that entry is gone.
    """

    __slots__ = ("recorded", "_tail", "_clock")

    def __init__(self, clock: SimClock) -> None:
        self.recorded = 0
        self._tail: deque[JournalEntry] = deque(maxlen=JOURNAL_TAIL)
        self._clock = clock

    def record(self, table: str, operation: str, key: Any, value: Any = None) -> None:
        self.recorded = sequence = self.recorded + 1
        # ``tuple.__new__`` directly: a NamedTuple's own ``__new__`` is a
        # Python function.
        self._tail.append(
            tuple.__new__(
                JournalEntry, (sequence, self._clock.now, table, operation, key, value)
            )
        )

    def __len__(self) -> int:
        return self.recorded

    def __iter__(self) -> Iterator[JournalEntry]:
        return iter(self._tail)

    def __getitem__(self, index: int) -> JournalEntry:
        position = index + self.recorded if index < 0 else index
        offset = position - (self.recorded - len(self._tail))
        if not 0 <= offset < len(self._tail):
            raise IndexError(f"journal entry {index} is outside the retained tail")
        return self._tail[offset]


class PersistenceEngine:
    """Per-node durable storage with simulated access costs.

    ``charge(category)`` advances the clock by the modelled cost of
    ``category`` and books it in the ledger; ``charge(category, seconds)``
    does the same for a duration the caller computed.  It is the node's
    :func:`~repro.sim.costs.charger` function, so table accesses, the
    invocation service and every middleware service of the node spend
    simulated time the same way.  An unknown category raises
    ``AttributeError``.
    """

    def __init__(
        self,
        clock: SimClock,
        ledger: CostLedger | None = None,
    ) -> None:
        self.clock = clock
        self.ledger = ledger if ledger is not None else CostLedger()
        self.charge = charger(clock, self.ledger)
        self._tables: dict[str, "Table"] = {}
        self._journal = Journal(clock)

    def table(self, name: str) -> "Table":
        """Get or create the named table."""
        if name not in self._tables:
            self._tables[name] = Table(name, self)
        return self._tables[name]

    def journal(self) -> Journal:
        return self._journal


class Table:
    """A named key-value table with counted, cost-charged access.

    Values are copied (:func:`~repro.objects.values.copy_value`) on the way
    in and out, giving the store the value semantics of serialized database
    rows: mutating a live object never silently mutates its persisted state
    or its journal entry.  A row is replaced — whole by :meth:`put`, or by
    field by :meth:`update` — and never changed in place, so a journal
    entry shares the stored copy while it is retained, and a row made by
    :meth:`update` shares its unchanged values with the row it replaced; a
    superseded row is freed once its entry leaves the journal's tail.
    """

    def __init__(self, name: str, engine: PersistenceEngine) -> None:
        self.name = name
        self.engine = engine
        self._rows: dict[Any, Any] = {}

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, key: Any) -> bool:
        return key in self._rows

    def insert(self, key: Any, value: Any) -> None:
        if key in self._rows:
            raise KeyError(f"duplicate key {key!r} in table {self.name!r}")
        self.engine.charge("db_create")
        stored = self._rows[key] = copy_value(value)
        self.engine._journal.record(self.name, "insert", key, stored)

    def put(self, key: Any, value: Any) -> None:
        self.engine.charge("db_write")
        stored = self._rows[key] = copy_value(value)
        self.engine._journal.record(self.name, "put", key, stored)

    def update(self, key: Any, changes: Mapping[str, Any]) -> None:
        """Replace the dict row at ``key`` by a copy with ``changes``
        applied (SQL ``UPDATE … SET``), charging one ``db_write`` and
        journaling the ``put`` that writing the whole new row would.

        Changes whose values are all leaves (an absorbed threat's degree
        name, count and flag) are merged as they are: under ``str`` field
        names the merged dict is already the copy."""
        if key not in self._rows:
            raise KeyError(f"no row {key!r} in table {self.name!r}")
        self.engine.charge("db_write")
        if not LEAVES.issuperset(map(type, changes.values())):
            changes = copy_value(changes)
        stored = self._rows[key] = {**self._rows[key], **changes}
        self.engine._journal.record(self.name, "put", key, stored)

    def restore(self, key: Any, value: Any) -> None:
        """Put back the row at ``key`` that a rolled-back write replaced,
        or drop it when ``value`` is ``None``: the write added it.

        Uncharged, as the cost model prices no rollback, and journaled as a
        ``restore``; a row the transaction deleted stays deleted.
        """
        if key in self._rows:
            if value is None:
                del self._rows[key]
                stored = None
            else:
                stored = self._rows[key] = copy_value(value)
            self.engine._journal.record(self.name, "restore", key, stored)

    def peek(self, key: Any) -> Any:
        """The stored row at ``key`` or ``None``; uncharged, for checkers."""
        return self._rows.get(key)

    def get(self, key: Any) -> Any:
        self.engine.charge("db_read")
        if key not in self._rows:
            raise KeyError(f"no row {key!r} in table {self.name!r}")
        return copy_value(self._rows[key])

    def delete(self, key: Any) -> None:
        self.engine.charge("db_delete")
        if key not in self._rows:
            raise KeyError(f"no row {key!r} in table {self.name!r}")
        del self._rows[key]
        self.engine._journal.record(self.name, "delete", key)

    def keys(self) -> list[Any]:
        return list(self._rows.keys())

    def scan(self) -> Iterator[tuple[Any, Any]]:
        """Iterate a snapshot of all rows, charging one read."""
        self.engine.charge("db_read")
        for key, value in list(self._rows.items()):
            yield key, copy_value(value)

    def clear(self) -> None:
        self._rows.clear()
        self.engine._journal.record(self.name, "clear", None)


@dataclass
class StateVersion:
    """One historical state of a replica (for reconciliation rollback)."""

    version: int
    state: dict[str, Any]
    timestamp: float


class StateHistory:
    """Per-object history of states applied during degraded mode (§4.3).

    The P4 protocol stores intermediate states so the reconciliation phase
    can attempt rollback to previous states.  Keeping this history is one
    of the costs the paper identifies for degraded-mode writes; every
    append charges ``state_history_write``.
    """

    def __init__(self, engine: PersistenceEngine) -> None:
        self.engine = engine
        self._history: dict[Any, list[StateVersion]] = {}

    def record(self, oid: Any, version: int, state: dict[str, Any]) -> StateVersion:
        """Append ``state`` as ``oid``'s ``version``.  The history keeps the
        dict it is handed: a snapshot nobody changes in place afterwards,
        as the one ``Entity.state()`` returns for an update's propagation."""
        self.engine.charge("state_history_write")
        entry = StateVersion(version=version, state=state, timestamp=self.engine.clock.now)
        self._history.setdefault(oid, []).append(entry)
        return entry

    def versions_of(self, oid: Any) -> list[StateVersion]:
        return list(self._history.get(oid, []))

    def objects(self) -> list[Any]:
        """The objects that have any recorded history."""
        return list(self._history)

    def discard(self, oid: Any, entry: StateVersion) -> None:
        """Drop an entry :meth:`record` returned; uncharged."""
        self._history[oid].remove(entry)
        if not self._history[oid]:
            del self._history[oid]

    def prune(self, oid: Any) -> int:
        """Drop one object's history (after reconciliation).  Returns
        entries dropped."""
        return len(self._history.pop(oid, []))
