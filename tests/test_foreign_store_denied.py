"""A node's threat store, history and update records change only through
its own handler.

Reconciliation's coordinator, ``min(merged)``, reads and writes its own
``Node`` and threat store and no other: what the other members hold, lack
and resolve travels as ``threat-digest`` replies, ``threat-sync`` and
``threat-resolved`` messages, their update records and rollback history
as ``replica-records`` and ``replica-history`` replies, and what they may
drop as one ``replica-reconciled`` round, each applied by the member's
own handler (DESIGN.md §5).  Here the reconciliation manager's store
table is replaced by a double that raises on any node but the minimum of
that node's current membership group, and the node tables of the
reconciliation and replication managers by a double that, while a group
reconciles, raises on any node but that group's coordinator.  One
generated scenario per corpus domain must replay under both to the very
trace it produces without them.
"""

import pytest

from repro.apps.registry import domain_names
from repro.check.scenario import Scenario
from repro.corpus import generate_scenario, preset_config
from repro.faults.chaos import replay_scenario


class ForeignStore(AssertionError):
    pass


class CoordinatorStoresOnly:
    """A node's threat store, handed out only while it coordinates its group."""

    def __init__(self, stores, gms):
        self._stores = stores
        self._gms = gms
        self.used = set()

    def __getitem__(self, node):
        coordinator = min(self._gms.view_of(node).members)
        if node != coordinator:
            raise ForeignStore(f"reconciliation asked for {node}'s store; {coordinator} coordinates")
        self.used.add(node)
        return self._stores[node]


class CoordinatorNodesOnly:
    """The node table; while a group reconciles, only its coordinator's
    ``Node`` is handed out."""

    def __init__(self, nodes):
        self._nodes = nodes
        self.coordinator = None
        self.used = set()

    def __getitem__(self, node):
        if self.coordinator is not None:
            if node != self.coordinator:
                raise ForeignStore(f"reconciliation asked for {node}'s Node; {self.coordinator} coordinates")
            self.used.add(node)
        return self._nodes[node]

    def __iter__(self):
        return iter(self._nodes)


def deny_foreign_stores(cluster):
    stores = CoordinatorStoresOnly(cluster.reconciliation.threat_stores, cluster.gms)
    cluster.reconciliation.threat_stores = stores
    nodes = CoordinatorNodesOnly(cluster.nodes)
    cluster.reconciliation.nodes = cluster.replication.nodes = nodes
    reconcile_group = cluster.reconciliation.reconcile_group

    def reconcile_group_as_its_coordinator(merged, *args, **kwargs):
        nodes.coordinator = min(merged)
        try:
            return reconcile_group(merged, *args, **kwargs)
        finally:
            nodes.coordinator = None

    cluster.reconciliation.reconcile_group = reconcile_group_as_its_coordinator
    return stores, nodes


def test_the_double_denies_every_store_but_the_coordinators():
    cluster, _refs = generate_scenario(preset_config("counter", 1)).build()
    double, nodes = deny_foreign_stores(cluster)
    coordinator, *others = sorted(cluster.nodes)
    assert double[coordinator] is cluster.threat_stores[coordinator]
    for node in others:
        with pytest.raises(ForeignStore):
            double[node]
    assert not hasattr(double, "values")
    cluster.partition({others[0]}, {coordinator, *others[1:]})
    assert double[others[0]] is cluster.threat_stores[others[0]]

    # Outside reconciliation every Node is handed out; inside, one.
    assert [nodes[node] for node in sorted(cluster.nodes)] == [
        cluster.nodes[node] for node in sorted(cluster.nodes)
    ]
    nodes.coordinator = coordinator
    assert nodes[coordinator] is cluster.nodes[coordinator]
    for node in others:
        with pytest.raises(ForeignStore):
            nodes[node]


@pytest.mark.parametrize("domain", domain_names())
def test_a_corpus_scenario_replays_identically_without_foreign_stores(domain, monkeypatch):
    # Seed 3 reconciles at least one merged group in every domain.
    scenario = generate_scenario(preset_config(domain, 3))
    expected = replay_scenario(scenario)

    doubles = []
    build = Scenario.build

    def build_without_foreign_stores(self, obs=None, transport="sim"):
        cluster, refs = build(self, obs, transport)
        doubles.append(deny_foreign_stores(cluster))
        return cluster, refs

    monkeypatch.setattr(Scenario, "build", build_without_foreign_stores)
    denied = replay_scenario(scenario)

    assert len(doubles) == 1
    stores, nodes = doubles[0]
    assert stores.used and nodes.used
    assert denied.trace_jsonl == expected.trace_jsonl
    assert denied.all_invariants_hold, denied.failed_invariants
