"""Fault injection and client-side resilience.

Two halves of one robustness story:

* **Inject richer faults** — per-link fault models
  (:class:`GilbertElliottLoss` burst loss, :class:`ExtraDelay`,
  :class:`Duplicate`, :class:`DropKinds`) plugged into the network via a
  :class:`FaultInjector`; timestamped :class:`FaultSchedule` scripts
  replayed on the simulation scheduler; and :func:`replay_scenario`,
  which runs any scenario — a seeded chaos script included — and checks
  the system invariants afterwards.
* **Survive them** — a :class:`RetryPolicy` (exponential backoff, seeded
  jitter), per-invocation deadlines, and per-destination
  :class:`CircuitBreaker` circuits, wired into the client invocation
  chain via :class:`ResilienceInterceptor` and configured per cluster
  through :class:`ResilienceConfig`.
"""

from .._lazy import reexport

__getattr__, __dir__, __all__ = reexport(globals(), {
    "chaos": ("InvariantResult", "ReplayReport", "replay_scenario"),
    "injector": ("FaultInjector",),
    "models": (
        "PASS", "CompositeFault", "DropKinds", "Duplicate", "ExtraDelay",
        "FaultDecision", "GilbertElliottLoss", "LinkFaultModel",
    ),
    "resilience": (
        "BreakerConfig", "BreakerState", "CircuitBreaker", "CircuitOpenError",
        "ResilienceConfig", "ResilienceInterceptor", "RetryPolicy",
    ),
    "schedule": ("ACTIONS", "FaultEvent", "FaultSchedule"),
})
