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
from typing import TYPE_CHECKING, Any, Iterable

from .registry import TRACE_EVENTS

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.clock import SimClock
    from .sinks import TraceSink

# The event vocabulary emitted by the built-in instrumentation.  Tracers
# accept unknown types too (applications may emit their own), but the
# middleware sticks to the canonical registry.
EVENT_TYPES = frozenset(TRACE_EVENTS)


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
    """Fans typed events out to the attached sinks."""

    def __init__(
        self,
        clock: "SimClock | None" = None,
        sinks: Iterable["TraceSink"] = (),
    ) -> None:
        self._clock = clock
        self.sinks: list[TraceSink] = list(sinks)
        self.enabled = True
        # Threads of the threaded backend emit concurrently; the lock also
        # serialises the sinks, which therefore see events in ``seq`` order.
        self._lock = threading.Lock()
        self.emitted = 0  # guarded-by: _lock
        self._next_seq = 0  # guarded-by: _lock
        # Every event ever emitted, by type: exact however many events
        # a bounded sink has since evicted.
        self._by_type: dict[str, int] = {}  # guarded-by: _lock

    def bind_clock(self, clock: "SimClock") -> None:
        """Attach the simulated clock used to stamp events."""
        self._clock = clock

    @property
    def now(self) -> float:
        return self._clock.now if self._clock is not None else 0.0

    def emit(self, type: str, node: str | None = None, **data: Any) -> TraceEvent | None:
        """Record one event; returns it, or ``None`` when disabled."""
        if not self.enabled:
            return None
        with self._lock:
            event = TraceEvent(self._next_seq, self.now, type, node, data)
            self._next_seq += 1
            self.emitted += 1
            self._by_type[type] = self._by_type.get(type, 0) + 1
            for sink in self.sinks:
                sink.record(event)
        return event

    def counts(self) -> dict[str, int]:
        """How many events of each type were emitted, sorted by type."""
        with self._lock:
            return dict(sorted(self._by_type.items()))

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()


class NullTracer:
    """Tracer stand-in: drops everything, no side effects."""

    enabled = False
    emitted = 0
    now = 0.0

    def bind_clock(self, clock: "SimClock") -> None:
        pass

    def emit(self, type: str, node: str | None = None, **data: Any) -> None:
        return None

    def close(self) -> None:
        pass
