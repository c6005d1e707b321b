"""The middleware runs without the topology oracle.

``replication/`` and ``core/`` learn of a partition from the group
membership view and from nowhere else (§4.1, Fig. 4.6).  Here every
network reference they hold is replaced by a double that delivers
messages and charges simulated time but raises on any question about
links, crashes or partitions; one generated scenario per corpus domain
must replay under it to the very trace it produces without the double.
The GMS holds no network to replace: it learns views from reachability
reports, and the sim adapter that produces them is the one oracle reader
besides the substrate itself and the operator / harness side.
"""

import sys

import pytest

from repro.apps.registry import domain_names
from repro.check.scenario import Scenario
from repro.corpus import generate_scenario, preset_config
from repro.faults.chaos import replay_scenario
from repro.net.topology import Topology
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
#: The network's own modules and the operator / harness side may read the
#: topology (DESIGN.md §5); of the middleware, only the sim adapter does.
NOT_MIDDLEWARE = ("repro.net.", "repro.cluster", "repro.faults.", "repro.check.")
ADAPTER = "repro.membership.sim_adapter"


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
    assert not any(isinstance(value, Topology) for value in vars(cluster.gms).values())
    double = ViewOnlyNetwork(cluster.network)
    if cluster.replication is not None:
        cluster.replication.network = double
    cluster.reconciliation.network = double
    for node in cluster.nodes.values():
        for interceptor in node.invocation_service.client_chain.interceptors:
            if isinstance(interceptor, TransportInterceptor):
                interceptor.network = double
    return double


def record_oracle_readers(monkeypatch):
    """The modules that call an oracle method from now on."""
    readers = set()
    for name in ORACLE[:-1]:  # topology_version is a plain attribute

        def reading(self, *args, _method=getattr(Topology, name), **kwargs):
            readers.add(sys._getframe(1).f_globals["__name__"])
            return _method(self, *args, **kwargs)

        monkeypatch.setattr(Topology, name, reading)
    return readers


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

    def build_without_oracle(self, obs=None, transport="sim"):
        cluster, refs = build(self, obs, transport)
        doubles.append(deny_the_oracle(cluster))
        return cluster, refs

    monkeypatch.setattr(Scenario, "build", build_without_oracle)
    readers = record_oracle_readers(monkeypatch)
    denied = replay_scenario(scenario)

    assert len(doubles) == 1 and "send" in doubles[0].used
    assert {reader for reader in readers if not reader.startswith(NOT_MIDDLEWARE)} == {ADAPTER}
    assert denied.trace_jsonl == expected.trace_jsonl
    assert denied.all_invariants_hold, denied.failed_invariants
