"""Tests for consistency-threat negotiation (§3.2.1)."""

import pytest

from repro.core import (
    AcceptAllHandler,
    CallbackNegotiationHandler,
    ConsistencyThreat,
    ConstraintValidationContext,
    FreshnessCriterion,
    NegotiationDecision,
    Negotiator,
    PredicateConstraint,
    RejectAllHandler,
    SatisfactionDegree,
    register_negotiation_handler,
)
from repro.core.model import CheckCategory, ValidationOutcome
from repro.objects import Entity
from repro.tx import TransactionManager


class Item(Entity):
    fields = {"value": 0}


def make_constraint(min_degree=SatisfactionDegree.SATISFIED, freshness=()):
    constraint = PredicateConstraint("c", lambda ctx: True)
    constraint.min_satisfaction_degree = min_degree
    constraint.freshness_criteria = tuple(freshness)
    return constraint


def make_threat(degree=SatisfactionDegree.POSSIBLY_SATISFIED):
    return ConsistencyThreat(constraint_name="c", degree=degree)


def make_outcome(constraint, degree, stale=()):
    return ValidationOutcome(
        constraint=constraint,
        degree=degree,
        category=CheckCategory.LCC,
        stale=list(stale),
    )


@pytest.fixture
def txmgr():
    return TransactionManager()


class TestPriorityChain:
    def test_dynamic_handler_wins(self, txmgr):
        constraint = make_constraint(min_degree=SatisfactionDegree.UNCHECKABLE)
        negotiator = Negotiator()
        tx = txmgr.begin()
        register_negotiation_handler(tx, RejectAllHandler())
        result = negotiator.negotiate(
            constraint,
            make_threat(),
            make_outcome(constraint, SatisfactionDegree.POSSIBLY_SATISFIED),
            ConstraintValidationContext(),
            tx,
        )
        # static config would accept, but the dynamic handler rejects
        assert result.decision is NegotiationDecision.REJECT
        assert result.mechanism == "dynamic"

    def test_static_when_no_handler(self, txmgr):
        constraint = make_constraint(min_degree=SatisfactionDegree.POSSIBLY_SATISFIED)
        negotiator = Negotiator()
        tx = txmgr.begin()
        result = negotiator.negotiate(
            constraint,
            make_threat(SatisfactionDegree.POSSIBLY_SATISFIED),
            make_outcome(constraint, SatisfactionDegree.POSSIBLY_SATISFIED),
            ConstraintValidationContext(),
            tx,
        )
        assert result.accepted
        assert result.mechanism == "static"

    def test_default_when_no_static_config(self, txmgr):
        constraint = make_constraint()  # strict default, no freshness
        negotiator = Negotiator()
        tx = txmgr.begin()
        # Accepted at the application-wide minimum degree, SATISFIED.
        result = negotiator.negotiate(
            constraint,
            make_threat(SatisfactionDegree.SATISFIED),
            make_outcome(constraint, SatisfactionDegree.SATISFIED),
            ConstraintValidationContext(),
            tx,
        )
        assert result.accepted
        assert result.mechanism == "default"

    def test_default_rejects_by_default(self, txmgr):
        constraint = make_constraint()
        negotiator = Negotiator()  # default minimum degree = SATISFIED
        tx = txmgr.begin()
        result = negotiator.negotiate(
            constraint,
            make_threat(),
            make_outcome(constraint, SatisfactionDegree.POSSIBLY_SATISFIED),
            ConstraintValidationContext(),
            tx,
        )
        assert not result.accepted

    def test_without_transaction_static_applies(self):
        constraint = make_constraint(min_degree=SatisfactionDegree.UNCHECKABLE)
        negotiator = Negotiator()
        result = negotiator.negotiate(
            constraint,
            make_threat(SatisfactionDegree.UNCHECKABLE),
            make_outcome(constraint, SatisfactionDegree.UNCHECKABLE),
            ConstraintValidationContext(),
            None,
        )
        assert result.accepted


class TestStaticNegotiation:
    def test_degree_below_minimum_rejected(self):
        constraint = make_constraint(min_degree=SatisfactionDegree.POSSIBLY_SATISFIED)
        negotiator = Negotiator()
        result = negotiator.negotiate(
            constraint,
            make_threat(SatisfactionDegree.POSSIBLY_VIOLATED),
            make_outcome(constraint, SatisfactionDegree.POSSIBLY_VIOLATED),
            ConstraintValidationContext(),
            None,
        )
        assert not result.accepted

    def test_uncheckable_minimum_accepts_everything(self):
        constraint = make_constraint(min_degree=SatisfactionDegree.UNCHECKABLE)
        negotiator = Negotiator()
        for degree in (
            SatisfactionDegree.UNCHECKABLE,
            SatisfactionDegree.POSSIBLY_VIOLATED,
            SatisfactionDegree.POSSIBLY_SATISFIED,
        ):
            result = negotiator.negotiate(
                constraint,
                make_threat(degree),
                make_outcome(constraint, degree),
                ConstraintValidationContext(),
                None,
            )
            assert result.accepted, degree

    def test_freshness_criterion_rejects_stale(self):
        item = Item("i1")
        item.set_value(1)
        item.expected_update_interval = 10.0
        item.last_update_time = -50.0  # ~5 missed updates
        constraint = make_constraint(
            min_degree=SatisfactionDegree.POSSIBLY_SATISFIED,
            freshness=[FreshnessCriterion("Item", max_age=2)],
        )
        negotiator = Negotiator()
        result = negotiator.negotiate(
            constraint,
            make_threat(SatisfactionDegree.POSSIBLY_SATISFIED),
            make_outcome(constraint, SatisfactionDegree.POSSIBLY_SATISFIED, stale=[item]),
            ConstraintValidationContext(),
            None,
        )
        assert not result.accepted

    def test_freshness_criterion_admits_fresh(self):
        item = Item("i1")
        item.set_value(1)
        constraint = make_constraint(
            min_degree=SatisfactionDegree.POSSIBLY_SATISFIED,
            freshness=[FreshnessCriterion("Item", max_age=2)],
        )
        negotiator = Negotiator()
        result = negotiator.negotiate(
            constraint,
            make_threat(SatisfactionDegree.POSSIBLY_SATISFIED),
            make_outcome(constraint, SatisfactionDegree.POSSIBLY_SATISFIED, stale=[item]),
            ConstraintValidationContext(),
            None,
        )
        assert result.accepted

    def test_freshness_only_counts_matching_class(self):
        item = Item("i1")
        item.expected_update_interval = 1.0
        item.last_update_time = -100.0
        constraint = make_constraint(
            min_degree=SatisfactionDegree.POSSIBLY_SATISFIED,
            freshness=[FreshnessCriterion("Unrelated", max_age=0)],
        )
        negotiator = Negotiator()
        result = negotiator.negotiate(
            constraint,
            make_threat(SatisfactionDegree.POSSIBLY_SATISFIED),
            make_outcome(constraint, SatisfactionDegree.POSSIBLY_SATISFIED, stale=[item]),
            ConstraintValidationContext(),
            None,
        )
        assert result.accepted


class TestHandlers:
    def test_accept_all(self):
        handler = AcceptAllHandler()
        decision = handler.negotiate(
            make_constraint(), make_threat(), ConstraintValidationContext()
        )
        assert decision is NegotiationDecision.ACCEPT

    def test_reject_all(self):
        handler = RejectAllHandler()
        decision = handler.negotiate(
            make_constraint(), make_threat(), ConstraintValidationContext()
        )
        assert decision is NegotiationDecision.REJECT

    def test_callback_handler_with_bool(self):
        handler = CallbackNegotiationHandler(lambda c, t, ctx: True)
        assert (
            handler.negotiate(make_constraint(), make_threat(), ConstraintValidationContext())
            is NegotiationDecision.ACCEPT
        )

    def test_callback_handler_with_decision(self):
        handler = CallbackNegotiationHandler(lambda c, t, ctx: NegotiationDecision.REJECT)
        assert (
            handler.negotiate(make_constraint(), make_threat(), ConstraintValidationContext())
            is NegotiationDecision.REJECT
        )

    def test_callback_handler_sees_threat_details(self):
        seen = {}

        def decide(constraint, threat, ctx):
            seen["constraint"] = constraint.name
            seen["degree"] = threat.degree
            return False

        handler = CallbackNegotiationHandler(decide)
        handler.negotiate(make_constraint(), make_threat(), ConstraintValidationContext())
        assert seen == {"constraint": "c", "degree": SatisfactionDegree.POSSIBLY_SATISFIED}

    def test_handler_can_attach_application_data(self):
        def decide(constraint, threat, ctx):
            threat.application_data["note"] = "checked by ops"
            return True

        handler = CallbackNegotiationHandler(decide)
        threat = make_threat()
        handler.negotiate(make_constraint(), threat, ConstraintValidationContext())
        assert threat.application_data == {"note": "checked by ops"}


class TestDynamicPriority:
    """§3.2.1: a dynamic handler decides outright, static metadata or not."""

    def test_dynamic_wins_over_a_stricter_static_degree(self, txmgr):
        constraint = make_constraint(min_degree=SatisfactionDegree.POSSIBLY_SATISFIED)
        negotiator = Negotiator()
        tx = txmgr.begin()
        register_negotiation_handler(tx, AcceptAllHandler())
        result = negotiator.negotiate(
            constraint,
            make_threat(SatisfactionDegree.POSSIBLY_VIOLATED),
            make_outcome(constraint, SatisfactionDegree.POSSIBLY_VIOLATED),
            ConstraintValidationContext(),
            tx,
        )
        assert result.accepted
        assert result.mechanism == "dynamic"
