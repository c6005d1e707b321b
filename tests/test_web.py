"""Tests for Web-application negotiation callbacks (§4.5, Fig. 4.8)."""

import pytest

from repro import ClusterConfig, DedisysCluster
from repro.apps.flightbooking import (
    AdditiveSoldMerge,
    Flight,
    ticket_constraint_registration,
)
from repro.web import DeferredWebReconciliationHandler, WebServer

NODES = ("a", "b", "c")


def make_cluster():
    cluster = DedisysCluster(ClusterConfig(node_ids=NODES))
    cluster.deploy(Flight)
    cluster.register_constraint(ticket_constraint_registration())
    return cluster


def sell_business(cluster, ref, count):
    """Business function selling tickets with the bridge as handler."""

    def run(bridge):
        return cluster.invoke("a", ref, "sell_tickets", count, negotiation_handler=bridge)

    return run


class TestHealthyWebRequests:
    def test_business_result_returned_directly(self):
        cluster = make_cluster()
        ref = cluster.create_entity("a", "Flight", "LH1", {"seats": 80})
        server = WebServer()
        response = server.submit(sell_business(cluster, ref, 5))
        assert response.kind == "result"
        assert response.body == 5
        server.join()

    def test_business_error_surfaces(self):
        cluster = make_cluster()
        ref = cluster.create_entity("a", "Flight", "LH1", {"seats": 80})
        server = WebServer()
        response = server.submit(sell_business(cluster, ref, 200))  # violates
        assert response.kind == "error"
        assert "TicketConstraint" in response.body
        server.join()


class TestNegotiationTunnelling:
    def _degraded_cluster(self):
        cluster = make_cluster()
        ref = cluster.create_entity("a", "Flight", "LH1", {"seats": 80})
        cluster.invoke("a", ref, "sell_tickets", 70)
        cluster.partition({"a"}, {"b", "c"})
        return cluster, ref

    def test_negotiation_question_transported_in_response(self):
        cluster, ref = self._degraded_cluster()
        server = WebServer()
        response = server.submit(sell_business(cluster, ref, 5))
        # the HTTP response of the business request carries the
        # negotiation request (Fig. 4.8)
        assert response.kind == "negotiation-request"
        assert response.body["constraint"] == "TicketConstraint"
        assert response.body["degree"] == "POSSIBLY_SATISFIED"
        assert response.token is not None
        # the decision arrives as a new HTTP request whose response is the
        # business result
        final = server.respond_to_negotiation(response.token, accept=True)
        assert final.kind == "result"
        assert final.body == 75
        server.join()

    def test_user_rejection_aborts_business_operation(self):
        cluster, ref = self._degraded_cluster()
        server = WebServer()
        response = server.submit(sell_business(cluster, ref, 5))
        final = server.respond_to_negotiation(response.token, accept=False)
        assert final.kind == "error"
        assert cluster.entity_on("a", ref).get_sold() == 70  # rolled back
        server.join()

    def test_timeout_rejects_threat(self):
        cluster, ref = self._degraded_cluster()
        server = WebServer(timeout=0.05)
        response = server.submit(sell_business(cluster, ref, 5))
        assert response.kind == "negotiation-request"
        # the browser never answers; the blocked negotiation thread times
        # out and rejects, surfacing the aborted business operation
        final = server.bridge.next_response(timeout=5.0)
        assert final.kind == "error"
        assert server.bridge.timed_out
        server.join()

    def test_accepted_threat_persisted(self):
        cluster, ref = self._degraded_cluster()
        server = WebServer()
        response = server.submit(sell_business(cluster, ref, 5))
        server.respond_to_negotiation(response.token, accept=True)
        server.join()
        assert cluster.threat_stores["a"].count_identities() == 1

    def test_answering_unknown_token_raises(self):
        server = WebServer()
        with pytest.raises(KeyError):
            server.bridge.answer(999, accept=True)

    def test_second_request_while_busy_rejected(self):
        cluster, ref = self._degraded_cluster()
        server = WebServer()
        server.submit(sell_business(cluster, ref, 5))
        with pytest.raises(RuntimeError):
            server.submit(sell_business(cluster, ref, 1))
        # clean up the outstanding negotiation
        pending_token = next(iter(server.bridge._pending))
        server.respond_to_negotiation(pending_token, accept=False)
        server.join()


class TestDeferredWebReconciliation:
    def test_violations_recorded_and_deferred(self):
        cluster = make_cluster()
        ref = cluster.create_entity("a", "Flight", "LH1", {"seats": 80})
        cluster.invoke("a", ref, "sell_tickets", 70)
        baselines = {ref: 70}
        cluster.partition({"a"}, {"b", "c"})
        from repro.core import AcceptAllHandler

        cluster.invoke("a", ref, "sell_tickets", 7, negotiation_handler=AcceptAllHandler())
        cluster.invoke("b", ref, "sell_tickets", 8, negotiation_handler=AcceptAllHandler())
        cluster.heal()
        handler = DeferredWebReconciliationHandler()
        report = cluster.reconcile(
            replica_handler=AdditiveSoldMerge(baselines), constraint_handler=handler
        )
        # §4.5: Web applications can only usefully apply deferred
        # reconciliation; the violation is noted for an operator
        assert report.deferred == 1
        assert handler.notifications[0]["constraint"] == "TicketConstraint"
        assert handler.notifications[0]["had_replica_conflict"] is True
        # the threat stays stored until the operator's business operation
        assert cluster.threat_stores["a"].pending()[0].deferred
        cluster.invoke("a", ref, "cancel_tickets", 5)
        assert cluster.threat_stores["a"].count_identities() == 0


class TestMultipleNegotiationsPerRequest:
    def test_two_threats_two_round_trips(self):
        """A business transaction touching two constrained objects yields
        two sequential negotiation questions over the same HTTP cycle."""
        cluster = make_cluster()
        ref_a = cluster.create_entity("a", "Flight", "LH1", {"seats": 80})
        ref_b = cluster.create_entity("a", "Flight", "LH2", {"seats": 50})
        cluster.invoke("a", ref_a, "sell_tickets", 10)
        cluster.invoke("a", ref_b, "sell_tickets", 5)
        cluster.partition({"a"}, {"b", "c"})
        server = WebServer()

        def business(bridge):
            def body(proxy):
                proxy.invoke(ref_a, "sell_tickets", 1)
                proxy.invoke(ref_b, "sell_tickets", 1)
                return "both sold"

            return cluster.run_in_tx("a", body, negotiation_handler=bridge)

        first = server.submit(business)
        assert first.kind == "negotiation-request"
        second = server.respond_to_negotiation(first.token, accept=True)
        assert second.kind == "negotiation-request"
        assert second.token != first.token
        final = server.respond_to_negotiation(second.token, accept=True)
        assert final.kind == "result"
        assert final.body == "both sold"
        server.join()
        assert cluster.threat_stores["a"].count_identities() == 2

    def test_rejecting_second_threat_aborts_whole_transaction(self):
        cluster = make_cluster()
        ref_a = cluster.create_entity("a", "Flight", "LH1", {"seats": 80})
        ref_b = cluster.create_entity("a", "Flight", "LH2", {"seats": 50})
        cluster.invoke("a", ref_a, "sell_tickets", 10)
        cluster.partition({"a"}, {"b", "c"})
        server = WebServer()

        def business(bridge):
            def body(proxy):
                proxy.invoke(ref_a, "sell_tickets", 1)
                proxy.invoke(ref_b, "sell_tickets", 1)

            return cluster.run_in_tx("a", body, negotiation_handler=bridge)

        first = server.submit(business)
        second = server.respond_to_negotiation(first.token, accept=True)
        final = server.respond_to_negotiation(second.token, accept=False)
        assert final.kind == "error"
        server.join()
        # the accepted first write was rolled back with the transaction
        assert cluster.entity_on("a", ref_a).get_sold() == 10
        assert cluster.entity_on("a", ref_b).get_sold() == 0
        # and reconciliation does not bring it back
        cluster.heal()
        cluster.reconcile()
        assert {node: cluster.entity_on(node, ref_a).get_sold() for node in NODES} == dict.fromkeys(
            NODES, 10
        )
