"""Round-trip property suite over a 200+ scenario corpus.

Scenario-as-data only works if the data is lossless and canonical.  This
suite generates a corpus spanning every registered domain and a spread of
seeds and scale knobs, then pins three properties on every member:

* ``Scenario.from_dict(s.to_dict()) == s`` — serialization is lossless;
* ``json.dumps(..., sort_keys=True)`` is byte-stable across a dump →
  load → dump cycle — the JSON form is canonical;
* the same ``GeneratorConfig`` produces an *equal* scenario on every
  call — the corpus is a pure function of its seeds.
"""

import json

import pytest

from repro.apps.registry import domain_names
from repro.check.scenario import Scenario
from repro.corpus import GeneratorConfig, generate_corpus, generate_scenario


#: The domains the parametrised ids below were first numbered over.
FOUNDING_DOMAINS = ("ats", "auction", "dtms", "flight_booking", "projectmgmt")


def _corpus():
    """8 seeds x 5 knob mixes per domain, plus one large scenario.

    Test ids are positional, so domains registered later are appended
    after the first 201 scenarios instead of being sorted in.
    """
    knob_mixes = (
        {},
        {"nodes": 5, "entities": 4, "ops": 20, "faults": 2},
        {"weighted_topology": True},
        {"partition_sensitive": True, "faults": 3},
        {"burst_loss": 0.1, "collision_rate": 0.5},
    )

    def mixes_of(domain):
        return [
            generate_scenario(GeneratorConfig(domain=domain, seed=seed, **mix))
            for seed in range(8)
            for mix in knob_mixes
        ]

    scenarios = [scenario for domain in FOUNDING_DOMAINS for scenario in mixes_of(domain)]
    scenarios.append(
        generate_scenario(
            GeneratorConfig(domain="auction", seed=99, nodes=150, entities=2000, ops=50)
        )
    )
    for domain in domain_names():
        if domain not in FOUNDING_DOMAINS:
            scenarios.extend(mixes_of(domain))
    return scenarios


CORPUS = _corpus()


def test_corpus_spans_every_domain_and_is_large_enough():
    assert len(CORPUS) >= 200
    assert {scenario.domain for scenario in CORPUS} == set(domain_names())
    assert len(domain_names()) >= 5


@pytest.mark.parametrize(
    "scenario", CORPUS, ids=[f"{s.domain}-{i}" for i, s in enumerate(CORPUS)]
)
def test_scenario_roundtrips_losslessly(scenario):
    assert Scenario.from_dict(scenario.to_dict()) == scenario


@pytest.mark.parametrize(
    "scenario", CORPUS, ids=[f"{s.domain}-{i}" for i, s in enumerate(CORPUS)]
)
def test_scenario_json_is_byte_stable(scenario):
    first = json.dumps(scenario.to_dict(), sort_keys=True)
    second = json.dumps(
        Scenario.from_dict(json.loads(first)).to_dict(), sort_keys=True
    )
    assert first == second


def test_same_seed_produces_identical_corpus():
    first = generate_corpus(seed=7, per_domain=3)
    second = generate_corpus(seed=7, per_domain=3)
    assert first == second
    blob_a = json.dumps([s.to_dict() for s in first], sort_keys=True)
    blob_b = json.dumps([s.to_dict() for s in second], sort_keys=True)
    assert blob_a == blob_b


def test_different_seeds_differ():
    a = generate_scenario(GeneratorConfig(domain="flight_booking", seed=1))
    b = generate_scenario(GeneratorConfig(domain="flight_booking", seed=2))
    assert a != b


def test_scale_knobs_are_honored():
    scenario = generate_scenario(
        GeneratorConfig(domain="ats", seed=0, nodes=150, entities=2000, ops=40)
    )
    assert len(scenario.node_ids) == 150
    assert scenario.entities == 2000
    # 40 invokes plus the closing reconcile.
    assert len(scenario.ops) == 41
    assert scenario.ops[-1].kind == "reconcile"


def test_weighted_topology_samples_node_weights():
    scenario = generate_scenario(
        GeneratorConfig(domain="auction", seed=4, nodes=6, weighted_topology=True)
    )
    weights = scenario.params["node_weights"]
    assert set(weights) == set(scenario.node_ids)
    assert all(weight >= 1.0 for weight in weights.values())
