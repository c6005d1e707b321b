"""Edge-case tests for the reconciliation phase."""

import pytest

from repro import ClusterConfig, DedisysCluster, ThreatStoragePolicy
from repro.apps.flightbooking import (
    AdditiveSoldMerge,
    Flight,
    ticket_constraint_registration,
)
from repro.core import (
    AcceptAllHandler,
    ConstraintPriority,
    ConstraintType,
    PredicateConstraint,
    SatisfactionDegree,
)
from repro.core.metadata import AffectedMethod, ConstraintRegistration
from repro.objects import Entity

NODES = ("a", "b", "c")


class Ledger(Entity):
    fields = {"total": 0}

    def add(self, amount):
        self._set("total", self._get("total") + amount)
        return self._get("total")


def query_constraint_registration():
    """A constraint validated from a query, needing no context object
    (§3.2.2 case 2): the sum over all Ledger objects stays bounded."""

    def validate(ctx):
        called = ctx.get_called_object()
        if called is None or called.container is None:
            return True
        ledgers = called.container.instances_of("Ledger")
        return sum(ledger.get_total() for ledger in ledgers) <= 100

    constraint = PredicateConstraint(
        "GlobalLedgerBound",
        validate,
        priority=ConstraintPriority.RELAXABLE,
        min_satisfaction_degree=SatisfactionDegree.UNCHECKABLE,
        context_object_needed=False,
    )
    return ConstraintRegistration(constraint, (AffectedMethod("Ledger", "add"),))


class TestQueryBasedThreats:
    def test_threat_without_context_object(self):
        cluster = DedisysCluster(ClusterConfig(node_ids=NODES))
        cluster.deploy(Ledger)
        cluster.register_constraint(query_constraint_registration())
        ref = cluster.create_entity("a", "Ledger", "l1")
        cluster.partition({"a"}, {"b", "c"})
        cluster.invoke("a", ref, "add", 10, negotiation_handler=AcceptAllHandler())
        threats = cluster.threat_stores["a"].pending()
        assert len(threats) == 1
        assert threats[0].context_ref is None  # §3.2.2: no input needed

    def test_query_threat_reconciles(self):
        cluster = DedisysCluster(ClusterConfig(node_ids=NODES))
        cluster.deploy(Ledger)
        cluster.register_constraint(query_constraint_registration())
        ref = cluster.create_entity("a", "Ledger", "l1")
        cluster.partition({"a"}, {"b", "c"})
        cluster.invoke("a", ref, "add", 10, negotiation_handler=AcceptAllHandler())
        cluster.heal()
        report = cluster.reconcile()
        assert report.satisfied_removed == 1
        assert cluster.threat_stores["a"].count_identities() == 0


class TestFullHistoryEndToEnd:
    def test_full_history_cluster_roundtrip(self):
        cluster = DedisysCluster(
            ClusterConfig(node_ids=NODES, threat_policy=ThreatStoragePolicy.FULL_HISTORY)
        )
        cluster.deploy(Flight)
        cluster.register_constraint(ticket_constraint_registration())
        ref = cluster.create_entity("a", "Flight", "f1", {"seats": 100})
        cluster.partition({"a"}, {"b", "c"})
        handler = AcceptAllHandler()
        for _ in range(3):
            cluster.invoke("a", ref, "sell_tickets", 1, negotiation_handler=handler)
        assert cluster.threat_stores["a"].stored_records() == 3
        cluster.heal()
        report = cluster.reconcile()
        assert report.threats_reevaluated == 1  # one identity
        assert cluster.threat_stores["a"].count_identities() == 0
        # every node's store is empty afterwards
        for node in NODES:
            assert cluster.threat_stores[node].stored_records() == 0


class TestSoftConstraintDegradedFlow:
    def test_soft_constraint_threat_at_commit(self):
        cluster = DedisysCluster(ClusterConfig(node_ids=NODES))
        cluster.deploy(Flight)
        registration = ticket_constraint_registration()
        registration.constraint.constraint_type = ConstraintType.INVARIANT_SOFT
        cluster.register_constraint(registration)
        ref = cluster.create_entity("a", "Flight", "f1", {"seats": 100})
        cluster.partition({"a"}, {"b", "c"})
        cluster.invoke(
            "a", ref, "sell_tickets", 1, negotiation_handler=AcceptAllHandler()
        )
        # soft constraints defer to commit; the threat is still recorded
        assert cluster.threat_stores["a"].count_identities() == 1


class TestReconcileWithCcmDisabled:
    def test_replica_only_reconciliation(self):
        cluster = DedisysCluster(ClusterConfig(node_ids=NODES, enable_ccm=False))
        cluster.deploy(Flight)
        ref = cluster.create_entity("a", "Flight", "f1", {"seats": 100})
        cluster.partition({"a"}, {"b", "c"})
        cluster.invoke("a", ref, "set_sold", 5)
        cluster.invoke("b", ref, "set_sold", 9)
        cluster.heal()
        report = cluster.reconcile()
        assert report.replica_conflicts == 1
        assert report.threats_reevaluated == 0
        values = {cluster.entity_on(node, ref).get_sold() for node in NODES}
        assert values == {9}


class TestCachingDisabledCluster:
    def test_plain_repository_cluster_works(self):
        cluster = DedisysCluster(
            ClusterConfig(node_ids=NODES, repository="linear")
        )
        cluster.deploy(Flight)
        cluster.register_constraint(ticket_constraint_registration())
        ref = cluster.create_entity("a", "Flight", "f1", {"seats": 10})
        assert cluster.invoke("a", ref, "sell_tickets", 5) == 5
        # every lookup pays the full search cost
        assert cluster.ledger.counts.get("repository_search", 0) > 0
        assert cluster.ledger.counts.get("repository_lookup_cached", 0) == 0

    def test_repository_is_the_only_knob(self):
        with pytest.raises(ValueError, match="unknown repository kind 'bogus'"):
            DedisysCluster(ClusterConfig(node_ids=NODES, repository="bogus"))
        with pytest.raises(TypeError):
            ClusterConfig(node_ids=NODES, caching_repository=False)


class TestRollbackFallback:
    def test_no_consistent_state_falls_back_to_handler(self):
        """§3.3: if no consistent historical state is found, the
        application-provided callback handles the violation."""
        from repro.core import CallbackNegotiationHandler
        from repro.core.threats import ReconciliationInstructions

        cluster = DedisysCluster(ClusterConfig(node_ids=NODES))
        cluster.deploy(Flight)
        cluster.register_constraint(ticket_constraint_registration())
        # ALL history states already violate: flight starts overbooked in
        # spirit — sell beyond capacity in each partition from a high base
        ref = cluster.create_entity("a", "Flight", "f1", {"seats": 10})
        cluster.invoke("a", ref, "sell_tickets", 10)  # exactly full
        cluster.partition({"a"}, {"b", "c"})

        def allow_rollback(constraint, threat, ctx):
            threat.instructions = ReconciliationInstructions(allow_rollback=True)
            return True

        handler = CallbackNegotiationHandler(allow_rollback)
        # every degraded state is overbooked once merged additively
        cluster.invoke("a", ref, "sell_tickets", 1, negotiation_handler=handler)
        cluster.invoke("b", ref, "sell_tickets", 1, negotiation_handler=handler)
        cluster.heal()
        fixes = []

        def fix(violation):
            flight = violation.context_entity
            flight.set_sold(flight.get_seats())
            fixes.append(1)
            return True

        kinds = []
        multicast = cluster.channel.multicast

        def recording(source, kind, *args, **kwargs):
            kinds.append(kind)
            return multicast(source, kind, *args, **kwargs)

        cluster.channel.multicast = recording
        report = cluster.reconcile(
            replica_handler=AdditiveSoldMerge({ref: 10}), constraint_handler=fix
        )
        assert report.violations_found == 1
        # rollback searched the history: every recorded partition state
        # (11 sold) violates the 10 seats too, so nothing is rolled back
        # and the handler fixes the merged 12
        assert (report.resolved_by_rollback, report.resolved_by_handler) == (0, 1)
        assert report.updates_rolled_back == 0
        assert fixes == [1]
        for node in NODES:
            assert cluster.entity_on(node, ref).get_sold() == 10
        # The members' histories arrived in one round all the same.
        assert kinds.count("replica-history") == 1


class TestLedgerIntrospection:
    def test_cost_ledger_categories_populated(self):
        cluster = DedisysCluster(ClusterConfig(node_ids=NODES))
        cluster.deploy(Flight)
        cluster.register_constraint(ticket_constraint_registration())
        ref = cluster.create_entity("a", "Flight", "f1", {"seats": 10})
        cluster.invoke("a", ref, "sell_tickets", 1)
        summary = cluster.ledger.summary()
        for category in (
            "invocation_base",
            "db_create",
            "db_read",
            "db_write",
            "multicast",
            "ccm_notification",
            "adapt_monitor",
            "replica_detail_write",
            "constraint_validate",
        ):
            assert category in summary, category
        assert cluster.ledger.total() == pytest.approx(cluster.clock.now)
