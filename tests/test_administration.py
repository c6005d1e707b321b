"""Tests for the administration service (Fig. 4.1, §4.1)."""

import pytest

from repro import ClusterConfig, DedisysCluster
from repro.administration import AdministrationService, AuthorizationError
from repro.apps.flightbooking import Flight, ticket_constraint_registration
from repro.core import AcceptAllHandler

from conftest import partition_fraction

NODES = ("a", "b", "c")


@pytest.fixture
def cluster():
    cluster = DedisysCluster(ClusterConfig(node_ids=NODES))
    cluster.deploy(Flight)
    return cluster


@pytest.fixture
def admin(cluster):
    service = AdministrationService(cluster)
    service.grant("alice")
    return service


class TestAuthorization:
    def test_general_user_rejected(self, admin):
        with pytest.raises(AuthorizationError):
            admin.register_constraint("bob", ticket_constraint_registration())

    def test_administrator_allowed(self, admin, cluster):
        admin.register_constraint("alice", ticket_constraint_registration())
        assert cluster.repository.knows("TicketConstraint")

    def test_grant_promotes(self, admin):
        admin.grant("bob")
        admin.register_constraint("bob", ticket_constraint_registration())

    def test_error_names_principal_and_action(self, admin):
        with pytest.raises(AuthorizationError) as exc_info:
            admin.disable_constraint("mallory", "TicketConstraint")
        assert exc_info.value.principal == "mallory"
        assert "disable" in exc_info.value.action


class TestRuntimeManagement:
    def test_enable_disable_cycle(self, admin, cluster):
        admin.register_constraint("alice", ticket_constraint_registration())
        ref = cluster.create_entity("a", "Flight", "f1", {"seats": 10})
        admin.disable_constraint("alice", "TicketConstraint")
        cluster.invoke("a", ref, "sell_tickets", 99)  # unchecked
        admin.enable_constraint("alice", "TicketConstraint")
        from repro.core import ConstraintViolated

        with pytest.raises(ConstraintViolated):
            cluster.invoke("a", ref, "sell_tickets", 1)

    def test_remove_constraint(self, admin, cluster):
        admin.register_constraint("alice", ticket_constraint_registration())
        admin.remove_constraint("alice", "TicketConstraint")
        assert not cluster.repository.knows("TicketConstraint")

    def test_list_constraints(self, admin):
        admin.register_constraint("alice", ticket_constraint_registration())
        listing = admin.list_constraints("alice")
        assert listing[0]["name"] == "TicketConstraint"
        assert listing[0]["tradeable"] is True
        assert listing[0]["enabled"] is True

    def test_set_node_weight(self, admin, cluster):
        admin.set_node_weight("alice", "a", 5.0)
        cluster.partition({"a"}, {"b", "c"})
        assert partition_fraction(cluster.gms, "a") == pytest.approx(5 / 7)


class TestInspection:
    def test_system_modes(self, admin, cluster):
        modes = admin.system_modes("alice")
        assert modes == {node: "healthy" for node in NODES}
        cluster.partition({"a"}, {"b", "c"})
        assert admin.system_modes("alice")["a"] == "degraded"

    def test_pending_threats(self, admin, cluster):
        admin.register_constraint("alice", ticket_constraint_registration())
        ref = cluster.create_entity("a", "Flight", "f1", {"seats": 100})
        cluster.partition({"a"}, {"b", "c"})
        cluster.invoke("a", ref, "sell_tickets", 1, negotiation_handler=AcceptAllHandler())
        threats = admin.pending_threats("alice")
        assert len(threats["a"]) == 1

    def test_drive_reconciliation(self, admin, cluster):
        admin.register_constraint("alice", ticket_constraint_registration())
        ref = cluster.create_entity("a", "Flight", "f1", {"seats": 100})
        cluster.partition({"a"}, {"b", "c"})
        cluster.invoke("a", ref, "sell_tickets", 1, negotiation_handler=AcceptAllHandler())
        cluster.heal()
        report = admin.drive_reconciliation("alice")
        assert report.satisfied_removed == 1

    def test_audit_trail_records_actions(self, admin):
        admin.register_constraint("alice", ticket_constraint_registration())
        admin.disable_constraint("alice", "TicketConstraint")
        trail = admin.audit_trail("alice")
        actions = [record.action for record in trail]
        assert "register constraint" in actions
        assert "disable constraint" in actions
        # reading the trail is itself audited
        assert actions[-1] == "read audit trail"

    def test_unauthorized_actions_not_audited(self, admin):
        with pytest.raises(AuthorizationError):
            admin.list_constraints("mallory")
        assert all(record.principal != "mallory" for record in admin.audit_log)
