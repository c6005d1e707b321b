"""Trace sinks: where emitted events go.

Three real sinks cover the reproduction's needs — an in-memory ring buffer
for tests and interactive inspection, a JSON-lines writer for offline
analysis (one ``json.loads``-able object per line), and a human-readable
summary aggregator.  :class:`NullSink` is the explicit do-nothing sink.
"""

from __future__ import annotations

import io
import json
import threading
from collections import Counter as _TallyCounter
from collections import deque
from pathlib import Path
from typing import IO, Iterator

from .tracing import TraceEvent


class TraceSink:
    """Base sink interface."""

    def record(self, event: TraceEvent) -> None:
        raise NotImplementedError

    def close(self) -> None:
        pass


class NullSink(TraceSink):
    """Accepts events and retains nothing."""

    def record(self, event: TraceEvent) -> None:
        pass


class RingBufferSink(TraceSink):
    """Keeps the most recent ``capacity`` events in memory."""

    def __init__(self, capacity: int | None = 65536) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("ring buffer capacity must be positive")
        # A reader (a test, a status thread) may snapshot the buffer while
        # threads of the threaded backend emit; taken inside the tracer's
        # lock by ``record``, never the other way round.
        self._lock = threading.Lock()
        self._events: deque[TraceEvent] = deque(maxlen=capacity)  # guarded-by: _lock
        self.recorded = 0  # guarded-by: _lock

    def record(self, event: TraceEvent) -> None:
        with self._lock:
            self._events.append(event)
            self.recorded += 1

    @property
    def dropped(self) -> int:
        """Events evicted by the capacity bound."""
        with self._lock:
            return self.recorded - len(self._events)

    def events(self) -> list[TraceEvent]:
        """A snapshot of the buffered events, oldest first."""
        with self._lock:
            return list(self._events)

    def clear(self) -> None:
        with self._lock:
            self._events.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events())


class JsonLinesSink(TraceSink):
    """Appends one compact JSON object per event to a file or stream."""

    def __init__(self, target: str | Path | IO[str]) -> None:
        if isinstance(target, (str, Path)):
            self._stream: IO[str] = open(target, "w", encoding="utf-8")
            self._owns_stream = True
        else:
            self._stream = target
            self._owns_stream = False
        self.written = 0

    def record(self, event: TraceEvent) -> None:
        self._stream.write(event.to_json())
        self._stream.write("\n")
        self.written += 1

    def close(self) -> None:
        self._stream.flush()
        if self._owns_stream:
            self._stream.close()


def write_jsonl(events: list[TraceEvent], target: str | Path | IO[str]) -> int:
    """Write a batch of events as JSON lines; returns the line count."""
    sink = JsonLinesSink(target)
    try:
        for event in events:
            sink.record(event)
    finally:
        sink.close()
    return sink.written


def read_jsonl(source: str | Path | IO[str]) -> list[dict[str, object]]:
    """Parse a JSON-lines trace back into event dictionaries."""
    if isinstance(source, (str, Path)):
        text = Path(source).read_text(encoding="utf-8")
    else:
        text = source.read()
    return [json.loads(line) for line in text.splitlines() if line.strip()]


class SummarySink(TraceSink):
    """Aggregates event counts per type for a human-readable report."""

    def __init__(self) -> None:
        self.counts: _TallyCounter[str] = _TallyCounter()
        self.first_timestamp: float | None = None
        self.last_timestamp: float | None = None

    def record(self, event: TraceEvent) -> None:
        self.counts[event.type] += 1
        if self.first_timestamp is None:
            self.first_timestamp = event.timestamp
        self.last_timestamp = event.timestamp

    def total(self) -> int:
        return sum(self.counts.values())

    def summary(self) -> str:
        out = io.StringIO()
        out.write("trace summary\n")
        if self.first_timestamp is not None and self.last_timestamp is not None:
            out.write(
                f"  sim-time span: {self.first_timestamp:.6f}s"
                f" .. {self.last_timestamp:.6f}s\n"
            )
        out.write(f"  events: {self.total()}\n")
        for event_type in sorted(self.counts):
            out.write(f"    {event_type:<22} {self.counts[event_type]}\n")
        return out.getvalue()
