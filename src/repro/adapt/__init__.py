"""Autonomic adaptation loop: observe → decide → act (§6 of the paper).

The middleware's dependability knobs — constraint tradeability, minimum
satisfaction degrees, replication protocol, primary placement, load
shedding — were until now fixed per scenario.  This package closes the
loop at runtime: a :class:`~repro.adapt.engine.AdaptationEngine` ticks
on simulated time, reads condensed health signals
(:mod:`~repro.adapt.signals`), evaluates declarative
:class:`~repro.adapt.policy.AdaptationPolicy` rules (threshold +
hysteresis + cooldown), and turns the knobs through the guarded,
reversible :class:`~repro.adapt.actuator.AdaptationActuator` — every
action dry-run validated before apply and undone on release or on a
regressing probe window.

Everything is deterministic in the scenario and seed: signals derive
from simulated time and sorted cluster state, ticks ride the same
scheduler the workload uses, and the engine keeps a canonical-JSON
decision trace for byte-for-byte comparison across runs.
"""

from .._lazy import reexport

__getattr__, __dir__, __all__ = reexport(globals(), {
    "actuator": ("ACTIONS", "ActionVetoed", "AdaptationActuator", "AppliedAction"),
    "engine": ("AdaptationEngine",),
    "policy": ("CONDITION_OPS", "AdaptationPolicy", "Condition"),
    "signals": ("SIGNALS", "SignalReader"),
})
