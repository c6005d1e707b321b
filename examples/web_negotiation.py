"""Web-application negotiation callbacks — §4.5, Fig. 4.8.

HTTP cannot carry a middleware→browser callback, so the negotiation
request travels in the HTTP *response* of the business request, and the
user's decision arrives as a new HTTP request that is then suspended until
the business result is available.  This example plays the browser side of
that protocol against a degraded flight-booking cluster.  Its last booking
asks two questions in one transaction (Fig. 4.8); declining the second
rolls the accepted first leg back, and reconciliation does not replay it.

Run:  python examples/web_negotiation.py
"""

from repro import ClusterConfig, DedisysCluster
from repro.apps.flightbooking import Flight, ticket_constraint_registration
from repro.web import WebServer


def main() -> None:
    cluster = DedisysCluster(ClusterConfig(node_ids=("web", "db1", "db2")))
    cluster.deploy(Flight)
    cluster.register_constraint(ticket_constraint_registration())
    flight = cluster.create_entity("web", "Flight", "OS-202", {"seats": 80})
    back = cluster.create_entity("web", "Flight", "OS-203", {"seats": 80})
    cluster.invoke("web", flight, "sell_tickets", 70)

    # The network partitions: the web node is separated from the others.
    cluster.partition({"web"}, {"db1", "db2"})
    server = WebServer()

    def buy_tickets(bridge):
        # the bridge acts as the dynamic negotiation handler
        return cluster.invoke(
            "web", flight, "sell_tickets", 5, negotiation_handler=bridge
        )

    # --- browser: POST /buy ------------------------------------------
    print("browser: POST /buy (5 tickets)")
    response = server.submit(buy_tickets)
    assert response.kind == "negotiation-request"
    print("browser: response carries a negotiation question:")
    print("   constraint :", response.body["constraint"])
    print("   degree     :", response.body["degree"])
    print("   affected   :", response.body["affected"])

    # --- browser: the user accepts; POST /negotiate ------------------
    print("browser: POST /negotiate (accept)")
    final = server.respond_to_negotiation(response.token, accept=True)
    print("browser: business result =", final.body, f"({final.kind})")
    server.join()

    # --- a second purchase, this time the user declines --------------
    print("\nbrowser: POST /buy (3 more tickets)")
    response = server.submit(
        lambda bridge: cluster.invoke(
            "web", flight, "sell_tickets", 3, negotiation_handler=bridge
        )
    )
    print("browser: negotiation question again; user declines")
    final = server.respond_to_negotiation(response.token, accept=False)
    print("browser: operation aborted ->", final.body)
    server.join()

    print("\nfinal sold on web node:", cluster.entity_on("web", flight).get_sold())
    print("threats stored:", cluster.threat_stores["web"].count_identities())

    # --- a round trip: two flights, one transaction, two questions ---
    print("\nbrowser: POST /book (2 seats out on OS-202, 2 back on OS-203)")

    def book_round_trip(bridge):
        def body(tx):
            tx.invoke(flight, "sell_tickets", 2)
            tx.invoke(back, "sell_tickets", 2)
            return "booked"

        return cluster.run_in_tx("web", body, negotiation_handler=bridge)

    first = server.submit(book_round_trip)
    print("browser: question on", first.body["affected"], "; user accepts")
    second = server.respond_to_negotiation(first.token, accept=True)
    print("browser: question on", second.body["affected"], "; user declines")
    final = server.respond_to_negotiation(second.token, accept=False)
    print("browser: booking aborted ->", final.body)
    server.join()

    cluster.heal()
    cluster.reconcile()
    sold = {node: cluster.entity_on(node, flight).get_sold() for node in cluster.nodes}
    print("after heal + reconcile, OS-202 sold per node:", sold)
    assert set(sold.values()) == {75}, "the accepted first leg came back"
    print("the accepted first leg did not sell")


if __name__ == "__main__":
    main()
