"""Flight booking application (§1.3, Fig. 1.3, Fig. 1.6).

Replicated server nodes store data about flights and sold tickets.  The
*ticket-constraint* requires ``sold <= seats`` per flight.  During a
network partition, tickets keep being sold in every partition (availability
over integrity); reconciliation merges the partitions' sales additively,
which may overbook the flight — the resulting constraint violation is
cleaned up by rebooking passengers (the application's reconciliation
handler).

Also provides the §5.5.2 partition-sensitive variant of the ticket
constraint, which splits the remaining tickets across partitions by weight
so that (in the absence of cancellations) no overbooking arises at all.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Callable, Mapping

from ..core import (
    Constraint,
    ConstraintPriority,
    ConstraintScope,
    ConstraintType,
    ConstraintValidationContext,
    SatisfactionDegree,
)
from ..core.metadata import AffectedMethod, ConstraintRegistration
from ..core.partition_sensitive import DegradedBaseline, partition_allowance
from ..objects import Entity, ObjectRef
from ..replication import ReplicaConflict, UpdateRecord


class Flight(Entity):
    """A flight with a seat capacity and a sold-tickets counter.

    The counter aggregates the Ticket objects of the full model; the
    constraint over it spans those tickets conceptually and is therefore
    declared inter-object (additive reconciliation can violate it
    retrospectively, unlike merge-by-selection).
    """

    fields = {"flight_number": "", "seats": 0, "sold": 0}

    def sell_tickets(self, count: int) -> int:
        """Sell ``count`` tickets; returns the new total sold."""
        if count < 0:
            raise ValueError("cannot sell a negative number of tickets")
        sold = self._get("sold") + count
        self._set("sold", sold)
        return sold

    def cancel_tickets(self, count: int) -> int:
        """Cancel ``count`` tickets; returns the new total sold."""
        if count < 0:
            raise ValueError("cannot cancel a negative number of tickets")
        sold = max(0, self._get("sold") - count)
        self._set("sold", sold)
        return sold

    def free_seats(self) -> int:
        return self._get("seats") - self._get("sold")


class TicketConstraint(Constraint):
    """The number of sold tickets must not exceed the seats (Fig. 1.6)."""

    name = "TicketConstraint"
    constraint_type = ConstraintType.INVARIANT_HARD
    priority = ConstraintPriority.RELAXABLE
    scope = ConstraintScope.INTER_OBJECT
    context_class = "Flight"
    # Accept "possibly satisfied" threats: tickets are mainly sold and
    # rarely returned, so a constraint satisfied on stale data is most
    # likely still acceptable, while "possibly violated" means we would
    # already be overbooking (§3.1).
    min_satisfaction_degree = SatisfactionDegree.POSSIBLY_SATISFIED
    description = "sold tickets <= seats of the flight"

    def validate(self, ctx: ConstraintValidationContext) -> bool:
        flight = ctx.get_context_object()
        return flight.get_sold() <= flight.get_seats()


class PartitionSensitiveTicketConstraint(Constraint):
    """§5.5.2: the ticket constraint with runtime data partitioning.

    In degraded mode the remaining tickets (seats minus tickets sold while
    healthy) are split across partitions according to the partition weight
    the middleware provides; each partition may only sell its share.
    Within the share the sale is *not* a consistency threat at all.
    """

    name = "PartitionSensitiveTicketConstraint"
    constraint_type = ConstraintType.INVARIANT_HARD
    priority = ConstraintPriority.RELAXABLE
    scope = ConstraintScope.INTER_OBJECT
    context_class = "Flight"
    min_satisfaction_degree = SatisfactionDegree.POSSIBLY_SATISFIED
    description = "sold <= healthy-mode sold + weighted share of remainder"

    def __init__(self, name: str | None = None) -> None:
        super().__init__(name)
        self._baseline = DegradedBaseline()

    def validate(self, ctx: ConstraintValidationContext) -> bool:
        flight = ctx.get_context_object()
        sold = flight.get_sold()
        seats = flight.get_seats()
        if not ctx.degraded:
            self._baseline.capture(flight.ref, sold, degraded=False)
            return sold <= seats
        baseline = self._baseline.capture(flight.ref, sold, degraded=True)
        allowance = partition_allowance(seats, baseline, ctx.partition_weight)
        return (sold - baseline) <= allowance


TICKET_AFFECTED_METHODS = (
    AffectedMethod("Flight", "sell_tickets"),
    AffectedMethod("Flight", "cancel_tickets"),
    AffectedMethod("Flight", "set_sold"),
    AffectedMethod("Flight", "set_seats"),
)


def ticket_constraint_registration(
    partition_sensitive: bool = False,
) -> ConstraintRegistration:
    """Standard registration of the ticket constraint."""
    constraint: Constraint
    if partition_sensitive:
        constraint = PartitionSensitiveTicketConstraint()
    else:
        constraint = TicketConstraint()
    return ConstraintRegistration(constraint, TICKET_AFFECTED_METHODS)


# A record's recency, read in C: newer timestamp, then higher version.
_by_recency = attrgetter("timestamp", "version")


class AdditiveSoldMerge:
    """Replica consistency handler merging partitioned ticket sales.

    Tickets sold in partition A and B both count: the merged ``sold`` is
    the healthy-mode baseline plus the per-partition deltas (leading to 85
    sold for 80 seats in the paper's example).  The baselines are the sold
    counters captured before the partition, supplied by the application.
    """

    def __init__(self, baselines: Mapping[ObjectRef, int]) -> None:
        self.baselines = dict(baselines)

    def __call__(self, conflict: ReplicaConflict) -> UpdateRecord | None:
        baseline = self.baselines.get(conflict.ref)
        if baseline is None:
            return None  # fall back to latest-update-wins
        # One final state per conflicting partition: take the newest
        # record of each partition key (the first seen wins a tie).
        latest_per_partition: dict[frozenset, UpdateRecord] = {}
        for record in conflict.candidates:
            if record.kind != "state" or record.state is None:
                continue
            current = latest_per_partition.get(record.partition_key)
            if current is None or _by_recency(record) > _by_recency(current):
                latest_per_partition[record.partition_key] = record
        if not latest_per_partition:
            return None
        latest = latest_per_partition.values()
        merged_sold = baseline + sum(record.state["sold"] - baseline for record in latest)
        chosen = max(latest, key=_by_recency)
        merged_state = dict(chosen.state)
        merged_state["sold"] = merged_sold
        return UpdateRecord(
            conflict.ref, "state", chosen.partition_key, chosen.node,
            max(record.version for record in latest) + 1, merged_state,
            chosen.timestamp, chosen.epoch,
        )


class RebookingReconciliationHandler:
    """Constraint reconciliation handler: rebook overbooked passengers.

    When the reconciled flight is overbooked, the excess tickets are
    cancelled/rebooked to another flight (§1.3).  Keeps a log of the
    rebookings it performed so tests and examples can show them.
    """

    def __init__(self, resolve: Callable[[ObjectRef], Flight]) -> None:
        self._resolve = resolve
        self.rebooked: list[tuple[ObjectRef, int]] = []

    def __call__(self, violation: Any) -> bool:
        ref = violation.context_ref
        if ref is None:
            return False
        # Prefer the coordinator's live view handed over by the
        # reconciliation manager; fall back to the app-provided resolver.
        flight = getattr(violation, "context_entity", None) or self._resolve(ref)
        excess = flight.get_sold() - flight.get_seats()
        if excess <= 0:
            return True
        flight.set_sold(flight.get_seats())
        self.rebooked.append((ref, excess))
        return True
