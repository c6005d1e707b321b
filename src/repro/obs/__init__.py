"""Observability: sim-time event tracing for the middleware.

The dissertation evaluates the middleware by counting things —
invocations, validations, threats, multicasts, reconciliation rounds.
The trace is the one instrument that records them: one :class:`Tracer`
stamps typed events with *simulated* time and, under one lock per event,
tallies them by type and keeps the most recent in a ring; every count is
a count of events (by type, or by a field).
Attach an :class:`Observability` hub via ``ClusterConfig(obs=...)``;
without one, every hook is a no-op.
"""

from .._lazy import reexport

__getattr__, __dir__, __all__ = reexport(globals(), {
    "hub": (
        "NULL_OBS", "NullObservability", "Observability", "ensure_obs",
        "read_jsonl", "write_jsonl",
    ),
    "registry": ("TRACE_EVENTS",),
    "tracing": ("TraceEvent", "Tracer", "jsonable"),
})
