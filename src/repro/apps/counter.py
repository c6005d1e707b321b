"""Bounded counters — the plain workload of chaos runs and of the §5.2
availability study: one ``counter`` under one relaxable ``CounterBound``,
so whatever a run observes is the middleware's doing.  ``set_counter``
carries its value as scenario data (what ``committed_state_survives``
checks against); ``bump`` is the study's read-modify-write.
"""

from __future__ import annotations

from ..core import ConstraintPriority, PredicateConstraint, SatisfactionDegree
from ..core.metadata import AffectedMethod, ConstraintRegistration
from ..objects import Entity


class Record(Entity):
    """A generic data item with a bounded counter."""

    fields = {"counter": 0, "bound": 10**9}

    def bump(self) -> int:
        self._set("counter", self._get("counter") + 1)
        return self._get("counter")


def counter_constraint_registration() -> ConstraintRegistration:
    constraint = PredicateConstraint(
        "CounterBound",
        lambda ctx: ctx.get_context_object().get_counter()
        <= ctx.get_context_object().get_bound(),
        priority=ConstraintPriority.RELAXABLE,
        min_satisfaction_degree=SatisfactionDegree.POSSIBLY_SATISFIED,
        context_class="Record",
    )
    return ConstraintRegistration(
        constraint,
        (AffectedMethod("Record", "bump"), AffectedMethod("Record", "set_counter")),
    )
