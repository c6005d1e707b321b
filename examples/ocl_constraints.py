"""Model-driven constraints: OCL expressions as runtime constraints.

Design-phase OCL (Fig. 1.6: ``context Flight inv: self.sold <= self.seats``)
becomes a first-class runtime constraint without writing a constraint
class — the §6.3 model-driven-generation direction.  The expression is
translated to Python once and compiled; the middleware validates the
compiled form like any handwritten constraint.

Run:  python examples/ocl_constraints.py
"""

from repro import ClusterConfig, DedisysCluster
from repro.apps.flightbooking import Flight
from repro.core import (
    AcceptAllHandler,
    ConstraintPriority,
    ConstraintViolated,
    SatisfactionDegree,
    ocl_invariant,
)
from repro.core.metadata import AffectedMethod, ConstraintRegistration
from repro.core.ocl_constraints import translate
from repro.validation.ocl import parse


def main() -> None:
    expression = "self.sold <= self.seats"
    print("design-phase OCL   :", f"context Flight inv: {expression}")
    print("translated to      :", translate(parse(expression)))

    constraint = ocl_invariant(
        "TicketConstraint",
        "Flight",
        expression,
        priority=ConstraintPriority.RELAXABLE,
        min_satisfaction_degree=SatisfactionDegree.POSSIBLY_SATISFIED,
    )

    cluster = DedisysCluster(ClusterConfig(node_ids=("a", "b", "c")))
    cluster.deploy(Flight)
    cluster.register_constraint(
        ConstraintRegistration(
            constraint,
            (
                AffectedMethod("Flight", "sell_tickets"),
                AffectedMethod("Flight", "set_sold"),
            ),
        )
    )

    flight = cluster.create_entity("a", "Flight", "OS-1", {"seats": 80})
    cluster.invoke("a", flight, "sell_tickets", 70)
    print("\nhealthy: sold 70 of 80 — constraint enforced by the middleware")
    try:
        cluster.invoke("a", flight, "sell_tickets", 20)
    except ConstraintViolated as error:
        print("healthy: rejected ->", error)

    cluster.partition({"a"}, {"b", "c"})
    cluster.invoke("a", flight, "sell_tickets", 5, negotiation_handler=AcceptAllHandler())
    print("degraded: sale accepted as a consistency threat;",
          cluster.threat_stores["a"].count_identities(), "threat stored")

    cluster.heal()
    report = cluster.reconcile()
    print("reconciled: satisfied threats removed =", report.satisfied_removed)

    # richer OCL — collections and navigation work too
    fleet_rule = ocl_invariant(
        "FleetRule", "Flight",
        "self.sold >= 0 and (self.seats > 0 implies self.sold <= self.seats)",
    )
    from repro.core import ConstraintValidationContext

    entity = cluster.entity_on("a", flight)
    print("\ncomposite OCL rule holds:",
          fleet_rule.validate(ConstraintValidationContext(context_object=entity)))


if __name__ == "__main__":
    main()
