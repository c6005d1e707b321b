"""The observability hub attached to a cluster (or used standalone).

An :class:`Observability` bundles one :class:`MetricsRegistry` and one
:class:`Tracer` (with an in-memory ring buffer always attached) and offers
the ``snapshot()`` / ``export_jsonl()`` API the benchmarks and tests use.

Observability is strictly optional: components default to the shared
:data:`NULL_OBS`, whose registry and tracer are no-ops, so the healthy
path pays nothing but a handful of no-op calls — and, crucially, never a
single simulated-clock tick.
"""

from __future__ import annotations

from pathlib import Path
from typing import IO, TYPE_CHECKING, Any, Iterable

from .metrics import MetricsRegistry, NullRegistry
from .sinks import RingBufferSink, SummarySink, TraceSink, write_jsonl
from .tracing import NullTracer, TraceEvent, Tracer

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.clock import SimClock


class Observability:
    """Metrics + tracing for one simulated deployment."""

    enabled = True

    def __init__(
        self,
        clock: "SimClock | None" = None,
        ring_capacity: int | None = 65536,
        sinks: Iterable[TraceSink] = (),
    ) -> None:
        self.registry = MetricsRegistry()
        self.ring = RingBufferSink(ring_capacity)
        self.tracer = Tracer(clock, sinks=[self.ring, *sinks])

    def bind_clock(self, clock: "SimClock") -> None:
        self.tracer.bind_clock(clock)

    def emit(self, type: str, node: str | None = None, **data: Any) -> TraceEvent | None:
        return self.tracer.emit(type, node, **data)

    def events(self, type: str | None = None) -> list[TraceEvent]:
        """The buffered events, optionally filtered by event type."""
        events = self.ring.events()
        if type is None:
            return events
        return [event for event in events if event.type == type]

    def event_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for event in self.ring:
            counts[event.type] = counts.get(event.type, 0) + 1
        return counts

    def snapshot(self) -> dict[str, Any]:
        """One JSON-able view of everything recorded so far."""
        return {
            "metrics": self.registry.snapshot(),
            "events": {
                # replint: ignore[CONC001] - lone read of an int that is
                # only ever written under the tracer's lock.
                "emitted": self.tracer.emitted,
                "buffered": len(self.ring),
                "dropped": self.ring.dropped,
                "by_type": dict(sorted(self.event_counts().items())),
            },
        }

    def export_jsonl(self, target: str | Path | IO[str]) -> int:
        """Write the buffered trace as JSON lines; returns the line count."""
        return write_jsonl(self.ring.events(), target)

    def summary(self) -> str:
        """Human-readable trace digest."""
        sink = SummarySink()
        for event in self.ring:
            sink.record(event)
        return sink.summary()


class NullObservability:
    """Disabled observability: every operation is a no-op."""

    enabled = False

    def __init__(self) -> None:
        self.registry = NullRegistry()
        self.tracer = NullTracer()

    def bind_clock(self, clock: "SimClock") -> None:
        pass

    def emit(self, type: str, node: str | None = None, **data: Any) -> None:
        return None

    def events(self, type: str | None = None) -> list[TraceEvent]:
        return []

    def event_counts(self) -> dict[str, int]:
        return {}

    def snapshot(self) -> dict[str, Any]:
        return {
            "metrics": {},
            "events": {"emitted": 0, "buffered": 0, "dropped": 0, "by_type": {}},
        }

    def export_jsonl(self, target: str | Path | IO[str]) -> int:
        return 0

    def summary(self) -> str:
        return "observability disabled\n"


NULL_OBS = NullObservability()


def ensure_obs(obs: "Observability | NullObservability | None") -> "Observability | NullObservability":
    """Normalize an optional observability argument to a usable hub."""
    return obs if obs is not None else NULL_OBS
