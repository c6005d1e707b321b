"""Fault injection.

Per-link fault models (:class:`GilbertElliottLoss` burst loss,
:class:`ExtraDelay`, :class:`Duplicate`, :class:`DropKinds`) plugged into
the network via a :class:`FaultInjector`; timestamped
:class:`FaultSchedule` scripts replayed on the simulation scheduler; and
:func:`replay_scenario`, which runs any scenario — a seeded chaos script
included — and checks the system invariants afterwards.  A fault reaches
the caller as an ``UnreachableError``: the middleware degrades (P4
temporary primaries, consistency threats, reconciliation) and never
retries a call.
"""

from .._lazy import reexport

__getattr__, __dir__, __all__ = reexport(globals(), {
    "chaos": ("InvariantResult", "ReplayReport", "replay_scenario"),
    "injector": ("FaultInjector",),
    "models": (
        "PASS", "CompositeFault", "DropKinds", "Duplicate", "ExtraDelay",
        "FaultDecision", "GilbertElliottLoss", "LinkFaultModel",
    ),
    "schedule": ("ACTIONS", "FaultEvent", "FaultSchedule"),
})
