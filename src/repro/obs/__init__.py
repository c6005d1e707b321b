"""Observability: metrics and sim-time event tracing for the middleware.

The dissertation evaluates the middleware by measuring it — invocation
overhead, validation counts, negotiation outcomes, replication traffic,
availability under partitions.  This package makes those quantities
first-class: a :class:`MetricsRegistry` of labelled counters, gauges and
histograms, a :class:`Tracer` recording typed events stamped with
*simulated* time, and pluggable sinks.  Attach an :class:`Observability`
hub via ``ClusterConfig(obs=...)``; without one, every hook is a no-op.
"""

from .._lazy import reexport

__getattr__, __dir__, __all__ = reexport(globals(), {
    "hub": ("NULL_OBS", "NullObservability", "Observability", "ensure_obs"),
    "metrics": (
        "Counter", "Gauge", "Histogram", "Instrument", "LabelCardinalityError",
        "MetricsRegistry", "NullCounter", "NullGauge", "NullHistogram", "NullRegistry",
        "label_key",
    ),
    "sinks": (
        "JsonLinesSink", "NullSink", "RingBufferSink", "SummarySink", "TraceSink",
        "read_jsonl", "write_jsonl",
    ),
    "registry": ("METRICS", "TRACE_EVENTS"),
    "tracing": ("EVENT_TYPES", "NullTracer", "TraceEvent", "Tracer", "jsonable"),
})
