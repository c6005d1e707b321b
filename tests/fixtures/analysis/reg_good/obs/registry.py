"""Fixture registry exactly matching the emitter's vocabulary."""

TRACE_EVENTS: dict[str, str] = {
    "known_event": "an event the emitter really emits",
}
