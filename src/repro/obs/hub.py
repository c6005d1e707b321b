"""The observability hub attached to a cluster (or used standalone).

An :class:`Observability` wraps one :class:`Tracer`, the one recorder:
under one lock per event it numbers the event, tallies it by type and
keeps it in a bounded ring.  The hub offers the ``snapshot()`` /
``export_jsonl()`` / ``summary()`` API the benchmarks and tests use; the
tally is the one count of what happened, the ring the most recent events
themselves.

Observability is strictly optional: components default to the shared
:data:`NULL_OBS`, whose every operation is a no-op, so the healthy path
pays nothing but a handful of no-op calls — and, crucially, never a
single simulated-clock tick.
"""

from __future__ import annotations

import io
import json
from pathlib import Path
from typing import IO, TYPE_CHECKING, Any, Mapping

from .tracing import TraceEvent, Tracer

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.clock import SimClock


class Observability:
    """Tracing for one simulated deployment."""

    enabled = True

    def __init__(self, ring_capacity: int | None = 65536) -> None:
        self.tracer = Tracer(ring_capacity)

    def bind_clock(self, clock: "SimClock") -> None:
        self.tracer.bind_clock(clock)

    def emit(self, type: str, node: str | None = None, **data: Any) -> TraceEvent:
        return self.tracer.emit(type, node, **data)

    def events(self, type: str | None = None) -> list[TraceEvent]:
        """The buffered events, optionally filtered by event type."""
        events = self.tracer.events()
        if type is None:
            return events
        return [event for event in events if event.type == type]

    def event_counts(self) -> dict[str, int]:
        """Every event emitted so far, by type, sorted by type; exact even
        after the ring buffer has dropped some."""
        return self.tracer.counts()

    def snapshot(self) -> dict[str, Any]:
        """One JSON-able view of everything recorded so far."""
        return {"events": self.tracer.snapshot()}

    def export_jsonl(self, target: str | Path | IO[str]) -> int:
        """Write the buffered trace as JSON lines; returns the line count."""
        return write_jsonl(self.tracer.events(), target)

    def summary(self) -> str:
        """Human-readable trace digest: exact per-type counts, and the
        sim-time span of the buffered events."""
        events = self.tracer.events()
        return summary_text(
            self.event_counts(),
            events[0].timestamp if events else None,
            events[-1].timestamp if events else None,
        )


class NullObservability:
    """Disabled observability: every operation is a no-op."""

    enabled = False

    def bind_clock(self, clock: "SimClock") -> None:
        pass

    def emit(self, type: str, node: str | None = None, **data: Any) -> None:
        return None

    def events(self, type: str | None = None) -> list[TraceEvent]:
        return []

    def event_counts(self) -> dict[str, int]:
        return {}

    def snapshot(self) -> dict[str, Any]:
        return {"events": {"emitted": 0, "buffered": 0, "dropped": 0, "by_type": {}}}

    def export_jsonl(self, target: str | Path | IO[str]) -> int:
        return 0

    def summary(self) -> str:
        return "observability disabled\n"


NULL_OBS = NullObservability()


def ensure_obs(obs: "Observability | NullObservability | None") -> "Observability | NullObservability":
    """Normalize an optional observability argument to a usable hub."""
    return obs if obs is not None else NULL_OBS


def write_jsonl(events: list[TraceEvent], target: str | Path | IO[str]) -> int:
    """Write events as JSON lines, one compact object each, to a path
    (created or truncated) or an open stream; returns the line count."""
    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="utf-8") as stream:
            return write_jsonl(events, stream)
    for event in events:
        target.write(event.to_json())
        target.write("\n")
    target.flush()
    return len(events)


def read_jsonl(source: str | Path | IO[str]) -> list[dict[str, object]]:
    """Parse a JSON-lines trace back into event dictionaries."""
    if isinstance(source, (str, Path)):
        text = Path(source).read_text(encoding="utf-8")
    else:
        text = source.read()
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def summary_text(
    counts: Mapping[str, int], first: float | None, last: float | None
) -> str:
    """The human-readable digest of per-type ``counts`` over a sim-time span."""
    out = io.StringIO()
    out.write("trace summary\n")
    if first is not None and last is not None:
        out.write(f"  sim-time span: {first:.6f}s .. {last:.6f}s\n")
    out.write(f"  events: {sum(counts.values())}\n")
    for event_type in sorted(counts):
        out.write(f"    {event_type:<22} {counts[event_type]}\n")
    return out.getvalue()
