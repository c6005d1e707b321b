"""Structured event tracing stamped with simulated time.

Every event carries the :class:`~repro.sim.clock.SimClock` timestamp at
which it happened, a per-tracer sequence number, and a typed payload of
plain key/value data.  Because the clock is simulated and all payload data
derives from the simulation state, the full event stream of a run is a
deterministic function of the scenario: the same seed and operations yield
a byte-identical trace — which the test suite enforces.

Events deliberately exclude process-global identifiers (invocation ids,
transaction ids, Python object ids) that differ between runs inside the
same interpreter.
"""

from __future__ import annotations

import enum
import json
import threading
from collections import deque
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.clock import SimClock


def jsonable(value: Any) -> Any:
    """Convert simulation values into deterministic JSON-able data.

    Enums become their names, sets are sorted, object references and other
    rich values collapse to ``str``.  Determinism matters more than
    fidelity here: two identical runs must serialize identically.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, enum.Enum):
        return value.name
    if isinstance(value, dict):
        return {str(key): jsonable(item) for key, item in value.items()}
    if isinstance(value, (frozenset, set)):
        return sorted(str(item) for item in value)
    if isinstance(value, (list, tuple)):
        return [jsonable(item) for item in value]
    return str(value)


class TraceEvent:
    """One recorded middleware event."""

    __slots__ = ("seq", "timestamp", "type", "node", "data")

    def __init__(
        self,
        seq: int,
        timestamp: float,
        type: str,
        node: str | None,
        data: dict[str, Any],
    ) -> None:
        self.seq = seq
        self.timestamp = timestamp
        self.type = type
        self.node = node
        self.data = data

    def to_dict(self) -> dict[str, Any]:
        return {
            "seq": self.seq,
            "ts": self.timestamp,
            "type": self.type,
            "node": self.node,
            "data": jsonable(self.data),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TraceEvent(#{self.seq} {self.type} @ {self.timestamp:.6f})"


class Tracer:
    """The one recorder: numbers, tallies and keeps every event.

    Threads of the threaded backend emit while a reader may look, so one
    lock covers the sequence number (which is ``emitted``), the per-type
    tally and the ring of the most recent events, and every view is read
    under it: a snapshot's four numbers always agree.
    """

    def __init__(self, ring_capacity: int | None = 65536) -> None:
        if ring_capacity is not None and ring_capacity < 1:
            raise ValueError("ring buffer capacity must be positive")
        self._clock: SimClock | None = None
        self._lock = threading.Lock()
        self.emitted = 0  # guarded-by: _lock
        # Every event ever emitted, by type: exact however many events
        # the bounded ring has since evicted.
        self._by_type: dict[str, int] = {}  # guarded-by: _lock
        self._ring: deque[TraceEvent] = deque(maxlen=ring_capacity)  # guarded-by: _lock

    def bind_clock(self, clock: "SimClock") -> None:
        """Attach the simulated clock used to stamp events."""
        self._clock = clock

    @property
    def now(self) -> float:
        return self._clock.now if self._clock is not None else 0.0

    def emit(self, type: str, node: str | None = None, **data: Any) -> TraceEvent:
        """Record one event and return it."""
        with self._lock:
            event = TraceEvent(self.emitted, self.now, type, node, data)
            self.emitted += 1
            self._by_type[type] = self._by_type.get(type, 0) + 1
            self._ring.append(event)
        return event

    def events(self) -> list[TraceEvent]:
        """The buffered events, oldest first."""
        with self._lock:
            return list(self._ring)

    def counts(self) -> dict[str, int]:
        """How many events of each type were emitted, sorted by type."""
        with self._lock:
            return dict(sorted(self._by_type.items()))

    def snapshot(self) -> dict[str, Any]:
        """Emitted, buffered and dropped counts and the per-type tally,
        read together."""
        with self._lock:
            buffered = len(self._ring)
            return {
                "emitted": self.emitted,
                "buffered": buffered,
                "dropped": self.emitted - buffered,
                "by_type": dict(sorted(self._by_type.items())),
            }
