"""Cost-charged in-memory persistence (MySQL/CMP analogue).

Each node owns a :class:`PersistenceEngine` holding named key-value tables.
Every access charges the simulated clock per the cost model — persistence
cost is what dominates create/delete throughput in Fig. 5.1/5.4 and threat
storage cost in the degraded-mode measurements, so the engine accounts for
it explicitly.  Every mutation is counted and the last few are kept in a
:class:`Journal` for introspection.  The journal is **not** a recovery log:
nothing is replayed from it, and what the middleware needs to read back —
consistency threats, replica state history — lives in tables and in
:class:`StateHistory`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Iterator

# The one import that reaches *up* a layer: the helper must know the frozen
# ``ObjectRef``.  ``objects.values`` imports nothing but ``objects.refs``, so
# it is complete by the time ``objects.node`` pulls this module in.
from ..objects.values import copy_value
from ..sim import CostLedger, CostModel, SimClock, charger


#: Entries a :class:`Journal` retains.  Short on purpose: the tail is all
#: young objects, and every young-generation collection walks it.
JOURNAL_TAIL = 32


@dataclass(frozen=True, slots=True)
class JournalEntry:
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
        self._tail.append(
            JournalEntry(sequence, self._clock.now, table, operation, key, value)
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
        costs: CostModel | None = None,
        ledger: CostLedger | None = None,
    ) -> None:
        self.clock = clock
        self.costs = costs if costs is not None else CostModel()
        self.ledger = ledger if ledger is not None else CostLedger()
        self.charge = charger(clock, self.costs, self.ledger)
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
    or its journal entry.  A row is replaced, never changed in place, so a
    journal entry shares the stored copy while it is retained; a superseded
    row is freed once its entry leaves the journal's tail.
    """

    def __init__(self, name: str, engine: PersistenceEngine) -> None:
        self.name = name
        self.engine = engine
        self._rows: dict[Any, Any] = {}

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, key: Any) -> bool:
        return key in self._rows

    def insert(self, key: Any, value: Any, cost: str = "db_create") -> None:
        if key in self._rows:
            raise KeyError(f"duplicate key {key!r} in table {self.name!r}")
        self.engine.charge(cost)
        stored = self._rows[key] = copy_value(value)
        self.engine._journal.record(self.name, "insert", key, stored)

    def put(self, key: Any, value: Any, cost: str = "db_write") -> None:
        self.engine.charge(cost)
        stored = self._rows[key] = copy_value(value)
        self.engine._journal.record(self.name, "put", key, stored)

    def get(self, key: Any, cost: str = "db_read") -> Any:
        self.engine.charge(cost)
        if key not in self._rows:
            raise KeyError(f"no row {key!r} in table {self.name!r}")
        return copy_value(self._rows[key])

    def get_or_none(self, key: Any, cost: str = "db_read") -> Any:
        self.engine.charge(cost)
        value = self._rows.get(key)
        return copy_value(value) if value is not None else None

    def delete(self, key: Any, cost: str = "db_delete") -> None:
        self.engine.charge(cost)
        if key not in self._rows:
            raise KeyError(f"no row {key!r} in table {self.name!r}")
        del self._rows[key]
        self.engine._journal.record(self.name, "delete", key)

    def keys(self) -> list[Any]:
        return list(self._rows.keys())

    def scan(self, cost: str = "db_read") -> Iterator[tuple[Any, Any]]:
        """Iterate a snapshot of all rows, charging one read."""
        self.engine.charge(cost)
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
    partition_epoch: int = 0
    txid: int | None = None


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

    def record(
        self,
        oid: Any,
        version: int,
        state: dict[str, Any],
        partition_epoch: int = 0,
        txid: int | None = None,
    ) -> StateVersion:
        self.engine.charge("state_history_write")
        entry = StateVersion(
            version=version,
            state=copy_value(state),
            timestamp=self.engine.clock.now,
            partition_epoch=partition_epoch,
            txid=txid,
        )
        self._history.setdefault(oid, []).append(entry)
        return entry

    def versions_of(self, oid: Any) -> list[StateVersion]:
        return list(self._history.get(oid, []))

    def objects(self) -> list[Any]:
        """The objects that have any recorded history."""
        return list(self._history)

    def latest(self, oid: Any) -> StateVersion | None:
        versions = self._history.get(oid)
        return versions[-1] if versions else None

    def prune(self, oid: Any | None = None) -> int:
        """Drop history (after reconciliation).  Returns entries dropped."""
        if oid is not None:
            dropped = len(self._history.get(oid, []))
            self._history.pop(oid, None)
            return dropped
        dropped = sum(len(v) for v in self._history.values())
        self._history.clear()
        return dropped

    def total_entries(self) -> int:
        return sum(len(v) for v in self._history.values())
