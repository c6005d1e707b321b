"""Deterministic discrete-event simulation kernel.

Provides the simulated clock, the event scheduler, and the parametric cost
model that replace the paper's physical testbed.
"""

from .clock import SimClock, Stopwatch
from .costs import CostLedger, CostModel, charger
from .scheduler import Event, OrderingPolicy, Scheduler

__all__ = [
    "CostLedger",
    "CostModel",
    "Event",
    "OrderingPolicy",
    "Scheduler",
    "SimClock",
    "Stopwatch",
    "charger",
]
