"""The middleware runs without the topology oracle.

``replication/`` and ``core/`` learn of a partition from the group
membership view and from nowhere else (§4.1, Fig. 4.6).  Here every
network reference they hold is replaced by a double that delivers
messages and charges simulated time but raises on any question about
links, crashes or partitions; one generated scenario per corpus domain
must replay under it to the very trace it produces without the double.
"""

import pytest

from repro.apps.registry import domain_names
from repro.check.scenario import Scenario
from repro.corpus import generate_scenario, preset_config
from repro.faults.chaos import replay_scenario
from repro.replication import TransportInterceptor

FORWARDED = frozenset({"send", "scheduler", "obs", "nodes", "costs", "charge"})
ORACLE = (
    "partition_of",
    "partitions",
    "reachable",
    "is_crashed",
    "is_healthy",
    "link_up",
    "topology_version",
)


class OracleDenied(AssertionError):
    pass


class ViewOnlyNetwork:
    """What the middleware may use of a network, and nothing else."""

    def __init__(self, network):
        self._network = network
        self.used = set()

    def __getattr__(self, name):
        if name not in FORWARDED:
            raise OracleDenied(f"the middleware asked the network for {name!r}")
        self.used.add(name)
        return getattr(self._network, name)


def deny_the_oracle(cluster):
    double = ViewOnlyNetwork(cluster.network)
    if cluster.replication is not None:
        cluster.replication.network = double
    cluster.reconciliation.network = double
    for node in cluster.nodes.values():
        for interceptor in node.invocation_service.client_chain.interceptors:
            if isinstance(interceptor, TransportInterceptor):
                interceptor.network = double
    return double


def test_the_double_denies_every_oracle_read():
    cluster, _refs = generate_scenario(preset_config("counter", 1)).build()
    double = deny_the_oracle(cluster)
    for name in ORACLE:
        with pytest.raises(OracleDenied):
            getattr(double, name)
    assert double.nodes == cluster.network.nodes


@pytest.mark.parametrize("domain", domain_names())
def test_a_corpus_scenario_replays_identically_without_the_oracle(domain, monkeypatch):
    scenario = generate_scenario(preset_config(domain, 7))
    expected = replay_scenario(scenario)

    doubles = []
    build = Scenario.build

    def build_without_oracle(self, obs=None):
        cluster, refs = build(self, obs)
        doubles.append(deny_the_oracle(cluster))
        return cluster, refs

    monkeypatch.setattr(Scenario, "build", build_without_oracle)
    denied = replay_scenario(scenario)

    assert len(doubles) == 1 and "send" in doubles[0].used
    assert denied.trace_jsonl == expected.trace_jsonl
    assert denied.all_invariants_hold, denied.failed_invariants
