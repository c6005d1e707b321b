"""Emits one registered and one unregistered event type."""


def wire(obs):
    obs.tracer.emit("known_event", node="a")
    obs.tracer.emit("mystery_event", node="a")
