"""The ``create``, ``delete`` and ``tx`` op kinds and the negotiation answer.

A scenario's refs are the domain's, then one per ``create`` op in op
order; a ``tx`` runs its legs in one transaction with one negotiation
answer; an op on a deleted entity is blocked, not a crashed replay.  The
hand-written flight scenario below carries every new kind and replays to
equal digests on the simulator and the threaded backend.
"""

import json
from dataclasses import replace

import pytest

from repro.check import Op, Scenario
from repro.check.runner import OpDriver, outcome_digest
from repro.corpus import validate_scenario
from repro.faults import replay_scenario
from repro.objects import ObjectRef


def _sell(at, node, ref, count, answer="accept"):
    return Op(at, "invoke", node=node, ref_index=ref, method="sell_tickets", args=(count,),
              answer=answer)


def _read(at, node, ref):
    return Op(at, "invoke", node=node, ref_index=ref, method="get_sold")


def kinds_scenario() -> Scenario:
    """Ref 0 is the domain's F0; ``create`` adds X1 (ref 1) and X2 (ref 2).
    A two-leg sale on X1 is refused on its second leg, so its first leg
    rolls back; a degraded sale on the temporary-primary side ``b`` is
    served with no handler and with accept-all; X2 is deleted, and a read
    of it is blocked."""
    return Scenario(
        name="op_kinds",
        node_ids=("a", "b", "c"),
        entities=1,
        params={"seats": 50},
        ops=(
            Op(0.1, "create", node="a", args=("Flight", "X1", {"seats": 10, "sold": 0})),
            Op(0.15, "create", node="a", args=("Flight", "X2", {"seats": 5, "sold": 0})),
            Op(0.2, "tx", node="a", legs=((1, "sell_tickets", (2,)), (1, "sell_tickets", (80,)))),
            _read(0.25, "a", 1),
            _read(0.26, "b", 1),
            _read(0.27, "c", 1),
            _sell(0.4, "b", 1, 1, answer="none"),
            _sell(0.45, "b", 1, 1),
            Op(0.7, "reconcile"),
            Op(0.8, "delete", node="a", ref_index=2),
            _read(0.9, "b", 2),
        ),
        fault_events=((0.3, "partition", (("a",), ("b", "c"))), (0.6, "heal_all", ())),
    )


def canonical(digest):
    return json.dumps(digest, sort_keys=True, default=str)


class TestOpData:
    def test_round_trips_through_its_dict(self):
        scenario = kinds_scenario()
        data = json.loads(json.dumps(scenario.to_dict()))
        assert Scenario.from_dict(data) == scenario

    def test_new_fields_are_emitted_only_off_their_defaults(self):
        fields = {"at", "kind", "node", "ref_index", "method", "args"}
        assert set(_read(0.1, "a", 0).to_dict()) == fields
        assert _sell(0.1, "a", 0, 1, answer="none").to_dict()["answer"] == "none"
        tx = Op(0.1, "tx", node="a", legs=((0, "get_sold", ()),)).to_dict()
        assert tx["legs"] == [[0, "get_sold", []]] and "answer" not in tx

    @pytest.mark.parametrize(
        "fields",
        [
            {"kind": "tx", "node": "a"},
            {"kind": "create", "node": "a", "args": ("Flight",)},
            {"kind": "delete"},
            {"kind": "invoke", "node": "a", "method": "get_sold", "answer": "maybe"},
        ],
    )
    def test_an_incomplete_op_is_refused(self, fields):
        with pytest.raises(ValueError):
            Op(0.1, **fields)


class TestReplay:
    @pytest.fixture(scope="class")
    def reports(self):
        return {
            transport: replay_scenario(kinds_scenario(), transport=transport)
            for transport in ("sim", "asyncio")
        }

    def test_equal_digests_on_sim_and_threaded(self, reports):
        sim, real = reports["sim"], reports["asyncio"]
        assert canonical(sim.digest) == canonical(real.digest)
        assert sim.simulated_seconds == real.simulated_seconds

    def test_every_invariant_holds_on_both(self, reports):
        for report in reports.values():
            assert report.failed_invariants == []

    def test_outcomes(self, reports):
        ops = reports["sim"].digest["ops"]
        assert ops == [
            ["op:create:Flight#X1@a", True, None],
            ["op:create:Flight#X2@a", True, None],
            ["op:tx:sell_tickets:F1+sell_tickets:F1@a", False, "ConstraintViolated"],
            ["op:get_sold:F1@a", True, 0],
            ["op:get_sold:F1@b", True, 0],
            ["op:get_sold:F1@c", True, 0],
            ["op:sell_tickets:F1@b", True, 1],
            ["op:sell_tickets:F1@b", True, 2],
            ["op:reconcile", True, None],
            ["op:delete:F2@a", True, None],
            ["op:get_sold:F2@b", False, "ObjectNotFound"],
        ]
        states = reports["sim"].digest["states"]
        assert set(states) == {"Flight#F0", "Flight#X1", "Flight#X2"}
        assert set(states["Flight#X2"].values()) == {None}

    def test_the_probe_reads_the_created_refs(self, monkeypatch):
        probes = []
        fill = OpDriver.fill_probe

        def capture(driver, probe, since=0):
            probes.append(probe)
            return fill(driver, probe, since)

        monkeypatch.setattr(OpDriver, "fill_probe", capture)
        replay_scenario(kinds_scenario())
        assert probes[-1].refs == tuple(ObjectRef("Flight", oid) for oid in ("F0", "X1", "X2"))

    def test_the_degraded_sales_match_the_script_lines(self):
        """``invoke`` / ``invoke-accept`` lines of a DedisysTest script give
        the same outcomes as the scenario's two answers."""
        from repro.apps.flightbooking import Flight, ticket_constraint_registration
        from repro.evaluation import ScriptRunner

        runner = ScriptRunner({"Flight": Flight}, {"ticket": ticket_constraint_registration})
        result = runner.run(
            """
            nodes a b c
            deploy Flight
            constraint ticket
            create a Flight X1 seats=10 sold=0
            partition a | b c
            invoke b Flight#X1 sell_tickets 1
            assert-result 1
            invoke-accept b Flight#X1 sell_tickets 1
            assert-result 2
            """
        )
        assert result.invocations == 2 and result.assertions == 2


@pytest.mark.parametrize("transport", ["sim", "asyncio"])
def test_an_op_on_a_deleted_entity_is_blocked(transport):
    scenario = Scenario(
        name="deleted",
        node_ids=("a", "b"),
        entities=1,
        ops=(
            Op(0.1, "create", node="a", args=("Flight", "G1", {"seats": 3})),
            Op(0.2, "delete", node="a", ref_index=1),
            _read(0.3, "b", 1),
        ),
    )
    cluster, refs = scenario.build(transport=transport)
    with cluster:
        driver = OpDriver(cluster, refs)
        driver.play(scenario)
        assert driver.outcomes[-1] == (scenario.ops[-1], False, "ObjectNotFound")
        assert outcome_digest(driver)["ops"][-1] == ["op:get_sold:F1@b", False, "ObjectNotFound"]


class TestValidator:
    """One well-formed and one malformed scenario per new kind."""

    BASE = Scenario(name="v", node_ids=("a", "b"), entities=1)

    def codes(self, *ops, **fields):
        return {issue.code for issue in validate_scenario(replace(self.BASE, ops=ops, **fields))}

    def test_create(self):
        create = Op(0.1, "create", node="a", args=("Flight", "X", {}))
        assert self.codes(create, _read(0.2, "b", 1)) == set()
        assert self.codes(Op(0.1, "create", node="a", args=("Ghost", "X", {}))) == {"unknown-class"}

    def test_a_ref_past_the_creates_is_bad(self):
        assert self.codes(_read(0.2, "b", 1)) == {"bad-ref"}

    def test_delete(self):
        assert self.codes(Op(0.1, "delete", node="a", ref_index=0)) == set()
        assert self.codes(Op(0.1, "delete", node="a", ref_index=3)) == {"bad-ref"}

    def test_tx(self):
        legs = ((0, "sell_tickets", (1,)), (0, "get_sold", ()))
        assert self.codes(Op(0.1, "tx", node="a", legs=legs)) == set()
        assert self.codes(Op(0.1, "tx", node="z", legs=legs)) == {"unknown-node"}
        assert self.codes(Op(0.1, "tx", node="a", legs=legs + ((0, "fly", ()),))) == {"unknown-op"}
        assert self.codes(Op(0.1, "tx", node="a", legs=legs + ((4, "get_sold", ()),))) == {"bad-ref"}
        crashed = ((0.0, "crash_node", ("a",)),)
        assert self.codes(Op(0.1, "tx", node="a", legs=legs), fault_events=crashed) == {
            "op-on-crashed-node"
        }


class TestNoCopyAnywhere:
    """``ReplicaConvergence`` lets a ref have no copy on any node only when
    the location service no longer knows it: deleted, or never created."""

    @staticmethod
    def converged(cluster, refs):
        from repro.check.invariants import ReplicaConvergence, RunProbe

        report = cluster.reconcile()
        probe = RunProbe(cluster, tuple(refs), just_reconciled=report)
        return ReplicaConvergence().check(probe)

    @pytest.mark.parametrize("replication", [True, False])
    def test_a_deleted_or_never_created_entity_has_none(self, replication):
        from repro.evaluation import build_cluster

        cluster = build_cluster(nodes=3, replication=replication)
        ref = cluster.create_entity("n1", "TestBean", "b0")
        cluster.delete_entity("n2", ref)
        assert set(cluster.replica_states(ref).values()) == {None}
        assert self.converged(cluster, [ref, ObjectRef("TestBean", "never")]) is None

    @pytest.mark.parametrize("replication", [True, False])
    def test_an_entity_gone_from_every_node_without_a_delete_diverges(self, replication):
        from repro.evaluation import build_cluster

        cluster = build_cluster(nodes=3, replication=replication)
        ref = cluster.create_entity("n1", "TestBean", "b0")
        for node in cluster.nodes.values():
            if node.container.has(ref):
                node.container.remove(ref)
        detail = self.converged(cluster, [ref])
        assert detail is not None and detail.startswith("replicas diverge post-reconciliation: ")
        assert str(ref) in detail
