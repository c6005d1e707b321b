"""Seeded scenario generator: one RNG stream, one reproducible corpus.

Everything is derived from ``random.Random(f"corpus:{domain}:{seed}")`` in
a fixed draw order, so the same :class:`GeneratorConfig` always yields a
byte-identical scenario — the property the round-trip and determinism
suites pin down.  A generated scenario is *valid by construction*: fault
episodes occupy disjoint time windows and every one is closed by its
matching heal, ops never originate on a node inside its crash window, a
``heal_all`` at the end restores full connectivity, and a final
``reconcile`` op cleans up whatever degraded-mode damage the workload did
— so the chaos replayer's post-run invariants and the checker's five
safety invariants can both be asserted on corpus output.

Scale comes from three knobs (§5.5): ``nodes`` (into the hundreds),
``entities`` (entity *groups*, into the thousands) and
``weighted_topology`` (unequal node weights, making primary-partition
election sensitive to *which* side of a split holds the weight).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from ..apps.registry import get_domain
from ..check.scenario import Op, Scenario
from ..obs import ensure_obs
from .grammars import OpTemplate, grammar_for

#: Node-weight palette for weighted topologies: most nodes are ordinary,
#: a few are heavy enough to swing the primary-partition vote (§5.5).
_WEIGHT_PALETTE = (1.0, 1.0, 1.0, 2.0, 3.0)


@dataclass(frozen=True)
class GeneratorConfig:
    """All knobs of one generated scenario."""

    domain: str = "flight_booking"
    seed: int = 0
    nodes: int = 3
    entities: int = 2
    ops: int = 12
    faults: int = 1
    op_gap: float = 0.05
    collision_rate: float = 0.25
    protocol: str = "p4"
    weighted_topology: bool = False
    partition_sensitive: bool = False
    burst_loss: float | None = None
    #: One of :data:`FAULT_PLANS`; anything but the default is recorded
    #: in ``params["fault_plan"]`` so the validator can police it.
    fault_plan: str = "episodes"
    name: str = ""
    params: dict[str, Any] = field(default_factory=dict)

    def scenario_name(self) -> str:
        return self.name or f"{self.domain}-s{self.seed}"


#: Preset scale tiers.  ``large`` exercises the hundreds-of-nodes /
#: thousands-of-entities end of §5.5; generation and validation stay
#: cheap because nothing is built until replay.
PRESETS: dict[str, dict[str, Any]] = {
    "small": {"nodes": 3, "entities": 2, "ops": 10, "faults": 1},
    "medium": {"nodes": 8, "entities": 24, "ops": 60, "faults": 2},
    "large": {"nodes": 120, "entities": 1500, "ops": 300, "faults": 4},
    # A chaos run: twenty overlapping topology actions under 150 ops.
    "chaos": {
        "nodes": 5,
        "entities": 6,
        "ops": 150,
        "faults": 20,
        "fault_plan": "random_walk",
    },
}


def preset_config(domain: str, seed: int, preset: str = "small", **overrides: Any) -> GeneratorConfig:
    try:
        scale = PRESETS[preset]
    except KeyError:
        raise KeyError(f"unknown preset {preset!r}; known: {sorted(PRESETS)}") from None
    return GeneratorConfig(domain=domain, seed=seed, **{**scale, **overrides})


def _round(value: float) -> float:
    """Timestamps quantized to 1e-4 so JSON round-trips are exact."""
    return round(value, 4)


@dataclass(frozen=True)
class _Episode:
    """One closed fault episode: its events plus the crash window (if any)."""

    events: tuple[tuple[float, str, tuple[Any, ...]], ...]
    crashed_node: str = ""
    crash_from: float = 0.0
    crash_until: float = 0.0


#: What a plan sampler returns: the fault events, the episodes carrying
#: the crash windows, and the timestamps of mid-run reconcile ops.
_FaultPlan = tuple[
    tuple[tuple[float, str, tuple[Any, ...]], ...],
    tuple[_Episode, ...],
    tuple[float, ...],
]


def _sample_partition(
    rng: random.Random, node_ids: tuple[str, ...], start: float, end: float
) -> _Episode:
    shuffled = list(node_ids)
    rng.shuffle(shuffled)
    group_count = 2 if len(node_ids) < 4 or rng.random() < 0.6 else 3
    cuts = sorted(rng.sample(range(1, len(shuffled)), group_count - 1))
    groups: list[tuple[str, ...]] = []
    previous = 0
    for cut in cuts + [len(shuffled)]:
        groups.append(tuple(shuffled[previous:cut]))
        previous = cut
    return _Episode(
        events=(
            (start, "partition", tuple(groups)),
            (end, "heal_all", ()),
        )
    )


def _sample_crash(
    rng: random.Random, node_ids: tuple[str, ...], start: float, end: float
) -> _Episode:
    node = rng.choice(node_ids)
    return _Episode(
        events=(
            (start, "crash_node", (node,)),
            (end, "recover_node", (node,)),
        ),
        crashed_node=node,
        crash_from=start,
        crash_until=end,
    )


def _sample_link(
    rng: random.Random, node_ids: tuple[str, ...], start: float, end: float
) -> _Episode:
    a, b = rng.sample(list(node_ids), 2)
    return _Episode(
        events=(
            (start, "fail_link", (a, b)),
            (end, "heal_link", (a, b)),
        )
    )


#: Fault-episode styles the sampler draws from, in draw order.
_EPISODE_SAMPLERS = {
    "partition": _sample_partition,
    "crash": _sample_crash,
    "link": _sample_link,
}


def _sample_fault_plan(
    rng: random.Random,
    node_ids: tuple[str, ...],
    faults: int,
    horizon: float,
) -> _FaultPlan:
    """``faults`` episodes in disjoint windows of ``(0, horizon)``, each
    closed by its heal."""
    episodes: list[_Episode] = []
    events: list[tuple[float, str, tuple[Any, ...]]] = []
    if faults > 0 and len(node_ids) >= 2:
        window = horizon / faults
        for slot in range(faults):
            window_start = slot * window
            start = _round(window_start + 0.2 * window + rng.random() * 0.2 * window)
            end = _round(window_start + 0.7 * window + rng.random() * 0.2 * window)
            style = rng.choice(tuple(_EPISODE_SAMPLERS))
            episode = _EPISODE_SAMPLERS[style](rng, node_ids, start, end)
            episodes.append(episode)
            events.extend(episode.events)
    return tuple(events), tuple(episodes), ()


def _sample_oscillating_plan(
    rng: random.Random,
    node_ids: tuple[str, ...],
    faults: int,
    horizon: float,
) -> _FaultPlan:
    """``faults`` partition cycles: short dwells with a long one every
    third cycle, each closed by its heal and followed by a mid-run
    reconcile (whose timestamps are returned for op insertion).

    The mix is deliberately adaptation-stressing: a policy without
    hysteresis/cooldown flaps on the short dwells, and one that never
    degrades gracefully bleeds integrity through the long ones.
    """
    events: list[tuple[float, str, tuple[Any, ...]]] = []
    reconcile_ats: list[float] = []
    if faults > 0 and len(node_ids) >= 2:
        window = horizon / faults
        for cycle in range(faults):
            window_start = cycle * window
            start = _round(window_start + 0.1 * window)
            long_dwell = cycle % 3 == 2
            end = _round(start + (0.7 if long_dwell else 0.3) * window)
            episode = _sample_partition(rng, node_ids, start, end)
            events.extend(episode.events)
            reconcile_ats.append(_round(end + 0.1 * window))
    return tuple(events), (), tuple(reconcile_ats)


def two_way_partition(
    rng: random.Random, node_ids: Sequence[str]
) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Split the nodes into two non-empty groups: one shuffle, one cut."""
    shuffled = list(node_ids)
    rng.shuffle(shuffled)
    cut = rng.randint(1, len(shuffled) - 1)
    return tuple(shuffled[:cut]), tuple(shuffled[cut:])


def _sample_random_walk_plan(
    rng: random.Random,
    node_ids: tuple[str, ...],
    faults: int,
    horizon: float,
) -> _FaultPlan:
    """``faults`` topology actions evenly spaced over ``(0, horizon)``,
    none closed before the next begins — the chaos script.

    Each action is drawn from what the topology scripted so far allows:
    only an intact link fails, only a failed one heals, only a crashed
    node recovers (twice as likely as any other action) and one node
    always stays up.  The crash windows are returned so ops originate on
    live nodes.
    """
    events: list[tuple[float, str, tuple[Any, ...]]] = []
    windows: list[_Episode] = []
    links = list(itertools.combinations(node_ids, 2))
    failed: set[tuple[str, str]] = set()
    crashed: dict[str, float] = {}  # node -> since when

    for index in range(faults if links else 0):
        at = _round((index + 1) / (faults + 1) * horizon)
        choices = ["partition"]
        if len(failed) < len(links):
            choices.append("fail_link")
        if failed:
            choices.append("heal_link")
        if crashed:
            choices += ["recover_node", "recover_node"]
        if len(crashed) < len(node_ids) - 1:
            choices.append("crash_node")
        if failed or crashed:
            choices.append("heal_all")
        action = rng.choice(choices)
        args: tuple[Any, ...] = ()
        if action == "fail_link":
            args = rng.choice([link for link in links if link not in failed])
            failed.add(args)
        elif action == "heal_link":
            args = rng.choice([link for link in links if link in failed])
            failed.remove(args)
        elif action == "crash_node":
            args = (rng.choice([node for node in node_ids if node not in crashed]),)
            crashed[args[0]] = at
        elif action == "recover_node":
            args = (rng.choice(sorted(crashed)),)
            windows.append(_Episode((), args[0], crashed.pop(args[0]), at))
        elif action == "partition":
            # A partition replaces whatever link failures came before it.
            args = two_way_partition(rng, node_ids)
            failed = {link for link in links if (link[0] in args[0]) != (link[1] in args[0])}
        else:
            failed.clear()
            windows.extend(_Episode((), node, crashed.pop(node), at) for node in sorted(crashed))
        events.append((at, action, args))
    # Still down when the ops end; the terminal heal_all brings them back.
    windows.extend(_Episode((), node, since, float("inf")) for node, since in crashed.items())
    return tuple(events), tuple(windows), ()


#: Fault-plan shapes the generator knows.  ``episodes`` is the classic
#: disjoint-window sampler; ``oscillating`` alternates short and long
#: partition dwells with a reconcile after every heal — the schedule that
#: punishes hysteresis-free adaptation policies; ``random_walk`` lets
#: link failures, crashes and partitions pile up on each other.
FAULT_PLANS = {
    "episodes": _sample_fault_plan,
    "oscillating": _sample_oscillating_plan,
    "random_walk": _sample_random_walk_plan,
}


def _alive_nodes(
    node_ids: tuple[str, ...], episodes: Iterable[_Episode], at: float
) -> tuple[str, ...]:
    """Nodes not inside a crash window at time ``at`` (crashed for
    ``crash_from <= at < crash_until``)."""
    crashed = {
        episode.crashed_node
        for episode in episodes
        if episode.crashed_node and episode.crash_from <= at < episode.crash_until
    }
    return tuple(node for node in node_ids if node not in crashed)


def _pick_template(rng: random.Random, grammar: tuple[OpTemplate, ...]) -> OpTemplate:
    total = sum(template.weight for template in grammar)
    roll = rng.random() * total
    for template in grammar:
        roll -= template.weight
        if roll < 0:
            return template
    return grammar[-1]


def generate_scenario(config: GeneratorConfig, obs: Any = None) -> Scenario:
    """One deterministic scenario from one config.

    The RNG stream is keyed by domain and seed only, so any two calls with
    equal configs — in any process, any order — produce equal scenarios.
    """
    domain = get_domain(config.domain)
    grammar = grammar_for(config.domain)
    rng = random.Random(f"corpus:{config.domain}:{config.seed}")
    node_ids = tuple(f"n{index + 1}" for index in range(config.nodes))

    params: dict[str, Any] = dict(config.params)
    params["seed"] = config.seed
    if config.partition_sensitive:
        params["partition_sensitive"] = True
    if config.burst_loss is not None:
        params["burst_loss"] = float(config.burst_loss)
    if config.weighted_topology:
        params["node_weights"] = {
            node: rng.choice(_WEIGHT_PALETTE) for node in node_ids
        }

    if config.fault_plan not in FAULT_PLANS:
        raise KeyError(
            f"unknown fault plan {config.fault_plan!r}; known: {sorted(FAULT_PLANS)}"
        )
    if config.fault_plan != "episodes":
        params["fault_plan"] = config.fault_plan
    horizon = max(config.ops, 1) * config.op_gap
    scripted, episodes, mid_reconciles = FAULT_PLANS[config.fault_plan](
        rng, node_ids, config.faults, horizon
    )
    # Every plan ends healed; the closing reconcile op follows this.
    fault_events = tuple(
        sorted(
            scripted + ((_round(horizon + 0.05), "heal_all", ()),),
            key=lambda event: (event[0], event[1]),
        )
    )

    ops: list[Op] = []
    at = 0.0
    for index in range(config.ops):
        if index == 0 or rng.random() >= config.collision_rate:
            at = _round(at + config.op_gap)
        template = _pick_template(rng, grammar)
        group = rng.randrange(max(config.entities, 1))
        slot = domain.layout.index(template.cls)
        ref_index = group * len(domain.layout) + slot
        alive = _alive_nodes(node_ids, episodes, at)
        node = rng.choice(alive) if alive else node_ids[0]
        ops.append(
            Op(
                at=at,
                kind="invoke",
                node=node,
                ref_index=ref_index,
                method=template.method,
                args=template.sample_args(rng, params),
            )
        )
    if mid_reconciles:
        ops.extend(Op(at=when, kind="reconcile") for when in mid_reconciles)
        ops.sort(key=lambda op: (op.at, op.kind, op.node, op.ref_index, op.method))
    # The terminal heal_all lands at horizon + 0.05; reconcile after it so
    # the run always ends connected and conflict-free.
    ops.append(Op(at=_round(horizon + 0.1), kind="reconcile"))

    scenario = Scenario(
        name=config.scenario_name(),
        domain=config.domain,
        node_ids=node_ids,
        entities=config.entities,
        protocol=config.protocol,
        params=params,
        ops=tuple(ops),
        fault_events=fault_events,
    )
    hub = ensure_obs(obs)
    hub.emit(
        "corpus_scenario",
        scenario=scenario.name,
        domain=scenario.domain,
        seed=config.seed,
        nodes=config.nodes,
        entities=config.entities,
        ops=len(scenario.ops),
        faults=len(scenario.fault_events),
    )
    hub.registry.counter(
        "corpus_scenarios_total", "scenarios produced by the corpus generator"
    ).inc(domain=config.domain)
    return scenario


def generate_corpus(
    seed: int,
    per_domain: int,
    domains: Iterable[str] | None = None,
    preset: str = "small",
    obs: Any = None,
    **overrides: Any,
) -> list[Scenario]:
    """``per_domain`` scenarios for each domain, seeds ``seed..seed+n-1``."""
    from ..apps.registry import domain_names

    chosen = sorted(domains) if domains is not None else domain_names()
    corpus: list[Scenario] = []
    for domain in chosen:
        for offset in range(per_domain):
            config = preset_config(domain, seed + offset, preset, **overrides)
            corpus.append(generate_scenario(config, obs=obs))
    return corpus

