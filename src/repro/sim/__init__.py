"""Deterministic discrete-event simulation kernel.

Provides the simulated clock, the event scheduler, and the calibrated cost
table that replace the paper's physical testbed.
"""

from .._lazy import reexport

__getattr__, __dir__, __all__ = reexport(globals(), {
    "clock": ("SimClock", "Stopwatch"),
    "costs": ("COSTS", "CostLedger", "charger"),
    "scheduler": ("Event", "OrderingPolicy", "Scheduler"),
})
