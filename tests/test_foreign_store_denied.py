"""A node's threat store changes only through its own handler.

Reconciliation's coordinator, ``min(merged)``, reads and writes its own
threat store and no other: what the other members hold, lack and resolve
travels as ``threat-digest`` replies, ``threat-sync`` and
``threat-resolved`` messages applied by each member's handler (DESIGN.md
§5).  Here the reconciliation manager's store table is replaced by a
double that raises on any node but the minimum of that node's current
membership group; one generated scenario per corpus domain must replay
under it to the very trace it produces without the double.
``values()`` stays open: ``_surviving_refs`` still scans every store,
which goes with the replica tables it feeds.
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

    def values(self):
        return self._stores.values()


def deny_foreign_stores(cluster):
    double = CoordinatorStoresOnly(cluster.reconciliation.threat_stores, cluster.gms)
    cluster.reconciliation.threat_stores = double
    return double


def test_the_double_denies_every_store_but_the_coordinators():
    cluster, _refs = generate_scenario(preset_config("counter", 1)).build()
    double = deny_foreign_stores(cluster)
    coordinator, *others = sorted(cluster.nodes)
    assert double[coordinator] is cluster.threat_stores[coordinator]
    for node in others:
        with pytest.raises(ForeignStore):
            double[node]
    cluster.partition({others[0]}, {coordinator, *others[1:]})
    assert double[others[0]] is cluster.threat_stores[others[0]]


@pytest.mark.parametrize("domain", domain_names())
def test_a_corpus_scenario_replays_identically_without_foreign_stores(domain, monkeypatch):
    scenario = generate_scenario(preset_config(domain, 7))
    expected = replay_scenario(scenario)

    doubles = []
    build = Scenario.build

    def build_without_foreign_stores(self, obs=None, transport="sim"):
        cluster, refs = build(self, obs, transport)
        doubles.append(deny_foreign_stores(cluster))
        return cluster, refs

    monkeypatch.setattr(Scenario, "build", build_without_foreign_stores)
    denied = replay_scenario(scenario)

    assert len(doubles) == 1 and doubles[0].used
    assert denied.trace_jsonl == expected.trace_jsonl
    assert denied.all_invariants_hold, denied.failed_invariants
