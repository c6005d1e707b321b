"""Tests for the constraint consistency manager (§4.2.3, Fig. 4.4)."""

import pytest

from repro.core import (
    AcceptAllHandler,
    CCMInterceptor,
    CachingConstraintRepository,
    CompiledConstraintRepository,
    ConsistencyThreatRejected,
    ConstraintConsistencyManager,
    ConstraintPriority,
    ConstraintRepository,
    ConstraintScope,
    ConstraintType,
    ConstraintUncheckable,
    ConstraintViolated,
    Negotiator,
    PredicateConstraint,
    SatisfactionDegree,
    ThreatStore,
    register_negotiation_handler,
)
from repro.core.metadata import AffectedMethod, ConstraintRegistration
from repro.objects import ContainerInvoker, Entity, InterceptorChain, Node
from repro.sim import CostLedger, SimClock
from repro.tx import TransactionManager, TransactionRolledBack


class Flight(Entity):
    fields = {"seats": 80, "sold": 0}

    def sell(self, count: int) -> int:
        self._set("sold", self._get("sold") + count)
        return self._get("sold")


class FakeGms:
    """Minimal GMS stand-in controlling perceived degradation."""

    class _View:
        def __init__(self, members):
            self.members = frozenset(members)

    def __init__(self, all_nodes=("n1", "n2"), visible=("n1", "n2"), weight=1.0):
        self.nodes = tuple(all_nodes)
        self.visible = tuple(visible)
        self.weight = weight

    def view_of(self, node):
        return FakeGms._View(self.visible)

    def weight_fraction(self, members):
        return self.weight


class FakeStaleness:
    def __init__(self, stale=False):
        self.stale = stale

    def may_be_stale(self, node):
        return self.stale

    def is_possibly_stale(self, entity):
        return self.stale

    def had_replica_conflict(self, ref):
        return False


class Harness:
    def __init__(self, degraded=False, stale=False, negotiator=None, repository=None):
        self.txmgr = TransactionManager()
        self.node = Node("n1", SimClock(), CostLedger(), self.txmgr)
        self.node.container.deploy(Flight)
        self.repository = (
            repository if repository is not None else CachingConstraintRepository()
        )
        self.store = ThreatStore(self.node.persistence)
        self.ccmgr = ConstraintConsistencyManager(
            self.node,
            self.repository,
            self.store,
            negotiator=negotiator,
            staleness=FakeStaleness(stale),
        )
        self.ccmgr.gms = FakeGms(visible=("n1",) if degraded else ("n1", "n2"))
        self.node.invocation_service.server_chain = InterceptorChain(
            [CCMInterceptor(self.node, self.ccmgr), ContainerInvoker(self.node)]
        )
        self.flight = self.node.container.create("Flight", "f1")

    def register(self, constraint, methods=("sell",)):
        self.repository.register(
            ConstraintRegistration(
                constraint,
                tuple(AffectedMethod("Flight", m) for m in methods),
            )
        )

    def invoke(self, method, *args, handler=None):
        def body(tx):
            if handler is not None:
                register_negotiation_handler(tx, handler)
            return self.node.invocation_service.invoke_local(
                self.flight.ref, method, args
            )

        return self.txmgr.run(body)


def ticket_constraint(**kwargs):
    constraint = PredicateConstraint(
        kwargs.pop("name", "Ticket"),
        lambda ctx: ctx.get_context_object().get_sold()
        <= ctx.get_context_object().get_seats(),
        **kwargs,
    )
    return constraint


class TestHealthyMode:
    def test_satisfied_invariant_allows_commit(self):
        harness = Harness()
        harness.register(ticket_constraint())
        assert harness.invoke("sell", 10) == 10
        assert harness.flight.get_sold() == 10

    def test_violated_invariant_aborts_and_rolls_back(self):
        harness = Harness()
        harness.register(ticket_constraint())
        with pytest.raises(ConstraintViolated):
            harness.invoke("sell", 100)
        # the write was undone by the transaction rollback
        assert harness.flight.get_sold() == 0
        assert harness.txmgr.rolled_back_count == 1

    def test_precondition_blocks_before_state_change(self):
        harness = Harness()
        precondition = PredicateConstraint(
            "PositiveCount",
            lambda ctx: ctx.get_method_arguments()[0] > 0,
            constraint_type=ConstraintType.PRECONDITION,
        )
        harness.register(precondition)
        with pytest.raises(ConstraintViolated):
            harness.invoke("sell", -1)
        assert harness.flight.get_sold() == 0

    def test_postcondition_with_pre_snapshot(self):
        harness = Harness()

        class SoldIncreases(PredicateConstraint):
            def before_method_invocation(self, ctx):
                ctx.pre_state[self.name] = ctx.get_called_object().get_sold()

        post = SoldIncreases(
            "SoldIncreases",
            lambda ctx: ctx.get_called_object().get_sold()
            == ctx.pre_state["SoldIncreases"] + ctx.get_method_arguments()[0],
            constraint_type=ConstraintType.POSTCONDITION,
        )
        harness.register(post)
        assert harness.invoke("sell", 5) == 5

    def test_postcondition_violation_detected(self):
        harness = Harness()
        post = PredicateConstraint(
            "NeverMoreThanTen",
            lambda ctx: ctx.get_method_result() <= 10,
            constraint_type=ConstraintType.POSTCONDITION,
        )
        harness.register(post)
        harness.invoke("sell", 10)
        with pytest.raises(ConstraintViolated):
            harness.invoke("sell", 5)

    def test_soft_invariant_checked_at_commit(self):
        harness = Harness()
        constraint = ticket_constraint(constraint_type=ConstraintType.INVARIANT_SOFT)
        harness.register(constraint)
        # the violating write succeeds mid-transaction; commit fails
        with pytest.raises(TransactionRolledBack):
            harness.invoke("sell", 100)
        assert harness.flight.get_sold() == 0

    def test_soft_invariant_satisfied_commits(self):
        harness = Harness()
        harness.register(ticket_constraint(constraint_type=ConstraintType.INVARIANT_SOFT))
        assert harness.invoke("sell", 10) == 10

    def test_async_behaves_like_soft_in_healthy_mode(self):
        harness = Harness()
        harness.register(ticket_constraint(constraint_type=ConstraintType.INVARIANT_ASYNC))
        with pytest.raises(TransactionRolledBack):
            harness.invoke("sell", 100)
        assert harness.store.count_identities() == 0

    def test_unaffected_method_not_checked(self):
        harness = Harness()
        harness.register(ticket_constraint(), methods=("other_method",))
        assert harness.invoke("sell", 500) == 500  # constraint never triggered

    def test_disabled_constraint_not_checked(self):
        harness = Harness()
        harness.register(ticket_constraint())
        harness.repository.disable("Ticket")
        assert harness.invoke("sell", 500) == 500

    def test_stats_track_validations(self):
        harness = Harness()
        harness.register(ticket_constraint())
        harness.invoke("sell", 1)
        assert harness.ccmgr.stats["validations"] == 1
        assert harness.ccmgr.stats["violations"] == 0


class TestDegradedMode:
    def test_stale_access_creates_threat(self):
        harness = Harness(degraded=True, stale=True)
        harness.register(ticket_constraint(priority=ConstraintPriority.RELAXABLE))
        harness.invoke("sell", 10, handler=AcceptAllHandler())
        assert harness.store.count_identities() == 1
        threat = harness.store.pending()[0]
        assert threat.degree is SatisfactionDegree.POSSIBLY_SATISFIED
        assert harness.ccmgr.stats["threats_accepted"] == 1

    def test_violated_on_stale_becomes_possibly_violated(self):
        harness = Harness(degraded=True, stale=True)
        constraint = ticket_constraint(
            priority=ConstraintPriority.RELAXABLE,
            min_satisfaction_degree=SatisfactionDegree.UNCHECKABLE,
        )
        harness.register(constraint)
        harness.invoke("sell", 100)  # violates on stale data
        threat = harness.store.pending()[0]
        assert threat.degree is SatisfactionDegree.POSSIBLY_VIOLATED

    def test_rejected_threat_aborts(self):
        harness = Harness(degraded=True, stale=True)
        harness.register(ticket_constraint(priority=ConstraintPriority.RELAXABLE))
        with pytest.raises(ConsistencyThreatRejected):
            harness.invoke("sell", 10)  # default negotiation rejects
        assert harness.flight.get_sold() == 0
        assert harness.ccmgr.stats["threats_rejected"] == 1

    def test_non_tradeable_threat_auto_rejected(self):
        harness = Harness(degraded=True, stale=True)
        harness.register(ticket_constraint(priority=ConstraintPriority.CRITICAL))
        with pytest.raises(ConsistencyThreatRejected) as exc_info:
            harness.invoke("sell", 10, handler=AcceptAllHandler())
        assert exc_info.value.mechanism == "non-tradeable"

    def test_intra_object_constraint_stays_reliable(self):
        # §3.1: under merge-by-selection reconciliation, LCCs on
        # intra-object constraints may report "satisfied".
        harness = Harness(degraded=True, stale=True)
        harness.register(
            ticket_constraint(
                priority=ConstraintPriority.RELAXABLE,
                scope=ConstraintScope.INTRA_OBJECT,
            )
        )
        assert harness.invoke("sell", 10) == 10
        assert harness.store.count_identities() == 0

    def test_uncheckable_constraint_creates_ncc_threat(self):
        harness = Harness(degraded=True)

        def validate(ctx):
            raise ConstraintUncheckable("peer unreachable")

        constraint = PredicateConstraint(
            "Unreachable", validate, priority=ConstraintPriority.RELAXABLE
        )
        harness.register(constraint)
        harness.invoke("sell", 1, handler=AcceptAllHandler())
        threat = harness.store.pending()[0]
        assert threat.degree is SatisfactionDegree.UNCHECKABLE

    def test_async_constraint_skips_validation_in_degraded_mode(self):
        harness = Harness(degraded=True, stale=True)
        calls = []

        def validate(ctx):
            calls.append(1)
            return True

        constraint = PredicateConstraint(
            "AsyncRule",
            validate,
            constraint_type=ConstraintType.INVARIANT_ASYNC,
            priority=ConstraintPriority.RELAXABLE,
        )
        harness.register(constraint)
        harness.invoke("sell", 10)
        assert calls == []  # §5.5.3: no validation, no negotiation
        assert harness.store.count_identities() == 1
        assert harness.store.pending()[0].degree is SatisfactionDegree.UNCHECKABLE

    def test_identical_threats_absorbed(self):
        harness = Harness(degraded=True, stale=True)
        harness.register(ticket_constraint(priority=ConstraintPriority.RELAXABLE))
        for _ in range(3):
            harness.invoke("sell", 1, handler=AcceptAllHandler())
        assert harness.store.count_identities() == 1
        (identity,) = harness.store.identities()
        assert sum(t.occurrences for t in harness.store.occurrences_of(identity)) == 3

    def test_threat_records_affected_objects(self):
        harness = Harness(degraded=True, stale=True)
        harness.register(ticket_constraint(priority=ConstraintPriority.RELAXABLE))
        harness.invoke("sell", 1, handler=AcceptAllHandler())
        threat = harness.store.pending()[0]
        assert harness.flight.ref in threat.affected_refs
        assert threat.context_ref == harness.flight.ref
        assert threat.origin_node == "n1"


class TestThreatCleanupViaBusiness:
    def test_satisfying_operation_removes_stored_threat(self):
        # §4.4: the CCMgr detects application clean-up through the fact
        # that a business operation satisfies the constraint again.
        harness = Harness(degraded=True, stale=True)
        harness.register(ticket_constraint(priority=ConstraintPriority.RELAXABLE))
        harness.invoke("sell", 10, handler=AcceptAllHandler())
        assert harness.store.count_identities() == 1
        # heal: healthy view, nothing stale any more
        harness.ccmgr.gms = FakeGms(visible=("n1", "n2"))
        harness.ccmgr.staleness.stale = False
        harness.invoke("sell", 1)
        assert harness.store.count_identities() == 0


class TestRecursionGuard:
    def test_constraint_invoking_middleware_does_not_recurse(self):
        harness = Harness()
        depth = []

        def validate(ctx):
            depth.append(1)
            if len(depth) > 3:
                raise RecursionError("constraint validation recursed")
            # Constraint code reads the entity through the middleware
            # (an intercepted call, §5.3).
            harness.node.invocation_service.invoke_local(
                harness.flight.ref, "get_sold", ()
            )
            return True

        constraint = PredicateConstraint("Recursing", validate)
        harness.register(constraint)
        harness.invoke("sell", 1)
        assert len(depth) == 1


class TestPartitionWeightExposure:
    def test_ctx_receives_partition_weight(self):
        harness = Harness(degraded=True)
        harness.ccmgr.gms.weight = 0.25
        seen = []

        def validate(ctx):
            seen.append((ctx.partition_weight, ctx.degraded))
            return True

        harness.register(PredicateConstraint("WeightAware", validate))
        harness.invoke("sell", 1)
        assert seen == [(0.25, True)]

    def test_healthy_weight_is_one(self):
        harness = Harness()
        seen = []

        def validate(ctx):
            seen.append((ctx.partition_weight, ctx.degraded))
            return True

        harness.register(PredicateConstraint("WeightAware", validate))
        harness.invoke("sell", 1)
        assert seen == [(1.0, False)]


PRE, POST, HARD, SOFT, ASYNC = ConstraintType
REPOSITORY_KINDS = {
    "linear": ConstraintRepository,
    "cached": CachingConstraintRepository,
    "compiled": CompiledConstraintRepository,
}
# Per kind: what one full invocation and a repeat of it charge.
EXPECTED_CHARGES = {
    "linear": {
        "first": ["repository_search"] * 5,
        "repeat": ["repository_search"] * 5,
    },
    "cached": {
        "first": ["repository_search"] * 5,
        "repeat": ["repository_lookup_cached"] * 5,
    },
    "compiled": {
        "first": ["repository_dispatch"] * 2,
        "repeat": ["repository_dispatch"] * 2,
    },
}


class RecordingDispatch:
    """A repository's dispatch that records each per-type question."""

    def __init__(self, dispatch, queries):
        self._dispatch = dispatch
        self._queries = queries

    def registrations(self, constraint_type=None):
        self._queries.append(constraint_type)
        return self._dispatch.registrations(constraint_type)


class TestOneDispatchPathForEveryRepository:
    """The CCMgr asks every repository kind the same questions and gets
    the same behaviour; only the charges differ, and they are pinned."""

    @pytest.mark.parametrize("kind", sorted(REPOSITORY_KINDS))
    def test_same_outcomes_and_pinned_charges(self, kind):
        charges, queries = [], []
        repository = REPOSITORY_KINDS[kind](charge=charges.append)
        method_dispatch = repository.method_dispatch
        repository.method_dispatch = lambda class_name, method_name: RecordingDispatch(
            method_dispatch(class_name, method_name), queries
        )
        harness = Harness(repository=repository)
        harness.register(
            PredicateConstraint(
                "PositiveCount",
                lambda ctx: ctx.get_method_arguments()[0] > 0,
                constraint_type=PRE,
                # argument-only: stays reliable on stale data (§3.1)
                scope=ConstraintScope.INTRA_OBJECT,
            )
        )
        harness.register(ticket_constraint(priority=ConstraintPriority.RELAXABLE))

        def step(*args, handler=None):
            del charges[:], queries[:]
            try:
                result = harness.invoke("sell", *args, handler=handler)
            except ConstraintViolated as exc:
                result = type(exc).__name__
            return result, list(charges), list(queries)

        per_type = [PRE, POST, HARD, SOFT, ASYNC]
        # healthy write, first sight of the method, then a repeat
        assert step(10) == (10, EXPECTED_CHARGES[kind]["first"], per_type)
        assert step(5) == (15, EXPECTED_CHARGES[kind]["repeat"], per_type)
        # refused writes: a precondition, then the hard invariant
        assert step(-1)[0] == "ConstraintViolated"
        assert step(100)[0] == "ConstraintViolated"
        assert harness.flight.get_sold() == 15
        # degraded write on stale data: the threat is negotiated and kept
        harness.ccmgr.gms = FakeGms(visible=("n1",))
        harness.ccmgr.staleness.stale = True
        assert step(1, handler=AcceptAllHandler())[0] == 16
        assert harness.flight.get_sold() == 16

        assert harness.ccmgr.stats == {
            "validations": 9,
            "threats_detected": 1,
            "threats_accepted": 1,
            "threats_rejected": 0,
            "violations": 2,
        }
        assert [
            (threat.constraint_name, threat.context_ref, threat.degree)
            for threat in harness.store.pending()
        ] == [("Ticket", harness.flight.ref, SatisfactionDegree.POSSIBLY_SATISFIED)]
