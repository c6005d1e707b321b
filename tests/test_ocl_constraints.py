"""Tests for OCL-defined runtime constraints (model-driven generation)."""

import pytest

from repro import ClusterConfig, DedisysCluster
from repro.core import (
    AcceptAllHandler,
    ConstraintPriority,
    ConstraintType,
    ConstraintValidationContext,
    ConstraintViolated,
    OclConstraint,
    SatisfactionDegree,
    compile_ocl,
    ocl_invariant,
)
from repro.core.metadata import AffectedMethod, ConstraintRegistration
from repro.core.ocl_constraints import OclEntityAdapter, translate
from repro.objects import Entity
from repro.validation.ocl import OclError, parse


class Flight(Entity):
    fields = {"seats": 80, "sold": 0, "codeshare": None}

    def sell_tickets(self, count):
        self._set("sold", self._get("sold") + count)
        return self._get("sold")


class TestTranslation:
    @pytest.mark.parametrize(
        "ocl,expected_value,env_value",
        [
            ("self.sold <= self.seats", True, (10, 80)),
            ("self.sold <= self.seats", False, (81, 80)),
            ("self.sold + 1 > 0", True, (0, 80)),
            ("self.sold = 5 or self.seats = 80", True, (5, 10)),
            ("self.sold <> 5 implies self.seats >= 0", True, (5, 80)),
        ],
    )
    def test_compiled_matches_interpreted(self, ocl, expected_value, env_value):
        class Obj:
            def __init__(self, sold, seats):
                self.sold = sold
                self.seats = seats

        obj = Obj(*env_value)
        compiled = compile_ocl(ocl)
        interpreted = parse(ocl).evaluate({"self": obj})
        assert compiled(obj) == bool(interpreted) == expected_value

    def test_translate_collections(self):
        source = translate(parse("self.items->forAll(i | i > 0)"))
        assert "all(" in source

    def test_translate_conditional(self):
        source = translate(parse("if self.x then 1 else 2 endif"))
        assert " if " in source and " else " in source

    def test_translate_select(self):
        class Obj:
            items = [1, 2, 3]

        assert compile_ocl("self.items->select(i | i > 1)->size() = 2")(Obj())


class TestOclConstraint:
    def test_compiled_validation(self):
        constraint = ocl_invariant("Cap", "Flight", "self.sold <= self.seats")
        flight = Flight("f1", sold=80)
        assert constraint.validate(ConstraintValidationContext(context_object=flight))
        flight.set_sold(81)
        assert not constraint.validate(ConstraintValidationContext(context_object=flight))

    def test_only_invariants_supported(self):
        with pytest.raises(ValueError):
            ocl_invariant(
                "X", "Flight", "true", constraint_type=ConstraintType.PRECONDITION
            )

    def test_malformed_expression_rejected_at_construction(self):
        with pytest.raises(OclError):
            ocl_invariant("X", "Flight", "self.sold <=")

    def test_metadata_carried(self):
        constraint = ocl_invariant(
            "Cap",
            "Flight",
            "self.sold <= self.seats",
            priority=ConstraintPriority.RELAXABLE,
            min_satisfaction_degree=SatisfactionDegree.POSSIBLY_SATISFIED,
        )
        assert constraint.is_tradeable()
        assert constraint.context_class == "Flight"
        assert "OCL" in constraint.description

    def test_adapter_access_tracking(self):
        from repro.objects import ObjectAccessTracker, pop_tracker, push_tracker

        flight = Flight("f1")
        constraint = ocl_invariant("Cap", "Flight", "self.sold <= self.seats")
        tracker = ObjectAccessTracker()
        push_tracker(tracker)
        try:
            constraint.validate(ConstraintValidationContext(context_object=flight))
        finally:
            pop_tracker()
        assert flight in tracker.accessed

    def test_adapter_navigates_references(self):
        primary = Flight("f1", sold=5)
        codeshare = Flight("f2", sold=7)
        primary._attributes["codeshare"] = codeshare  # direct wiring
        constraint = ocl_invariant(
            "CodeshareWithinCap",
            "Flight",
            "self.codeshare.sold <= self.codeshare.seats",
        )
        assert constraint.validate(ConstraintValidationContext(context_object=primary))

    def test_adapter_equality_by_ref(self):
        flight = Flight("f1")
        assert OclEntityAdapter(flight) == OclEntityAdapter(flight)
        assert OclEntityAdapter(flight) == flight


class TestOclConstraintOnCluster:
    """The generated constraint plugs into the middleware end to end."""

    def _cluster(self):
        cluster = DedisysCluster(ClusterConfig(node_ids=("a", "b", "c")))
        cluster.deploy(Flight)
        constraint = ocl_invariant(
            "OclTicketConstraint",
            "Flight",
            "self.sold <= self.seats",
            priority=ConstraintPriority.RELAXABLE,
            min_satisfaction_degree=SatisfactionDegree.POSSIBLY_SATISFIED,
        )
        cluster.register_constraint(
            ConstraintRegistration(
                constraint,
                (
                    AffectedMethod("Flight", "sell_tickets"),
                    AffectedMethod("Flight", "set_sold"),
                ),
            )
        )
        return cluster

    def test_healthy_violation_detected(self):
        cluster = self._cluster()
        ref = cluster.create_entity("a", "Flight", "f1", {"seats": 10})
        with pytest.raises(ConstraintViolated):
            cluster.invoke("a", ref, "sell_tickets", 11)
        assert cluster.entity_on("a", ref).get_sold() == 0

    def test_degraded_produces_threats(self):
        cluster = self._cluster()
        ref = cluster.create_entity("a", "Flight", "f1", {"seats": 10})
        cluster.partition({"a"}, {"b", "c"})
        cluster.invoke(
            "a", ref, "sell_tickets", 5, negotiation_handler=AcceptAllHandler()
        )
        assert cluster.threat_stores["a"].count_identities() == 1

    def test_reconciliation_reevaluates_ocl_constraint(self):
        cluster = self._cluster()
        ref = cluster.create_entity("a", "Flight", "f1", {"seats": 10})
        cluster.partition({"a"}, {"b", "c"})
        cluster.invoke(
            "a", ref, "sell_tickets", 5, negotiation_handler=AcceptAllHandler()
        )
        cluster.heal()
        report = cluster.reconcile()
        assert report.satisfied_removed == 1
        assert cluster.threat_stores["a"].count_identities() == 0
