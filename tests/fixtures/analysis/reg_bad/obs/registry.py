"""Fixture registry with one dead event."""

TRACE_EVENTS: dict[str, str] = {
    "known_event": "an event the emitter really emits",
    "dead_event": "nothing emits this any more",
}
