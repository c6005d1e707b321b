"""Every emitted type is registered; kind constants resolve too."""

KNOWN_EVENT = "known_event"


def wire(obs):
    obs.tracer.emit(KNOWN_EVENT, node="a")
