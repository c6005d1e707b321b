"""The five workloads: seeded plans and the oracles that judge them.

A *plan* is everything the program will be asked to do, generated from
``--seed`` before anything is timed: blocks of healthy operations and,
after every ``cycle_every``-th block, one partition cycle (split →
degraded operations → heal → reconcile).  The program receives only the
generated operations.

The *oracle* is a plain-Python model of the applications' business rules
— a sold counter per flight, and a few lines per corpus domain — that
imports nothing from the program.  It predicts every operation's outcome
(a value, or a mandatory refusal) and the state every replica must hold
at the end; a run is correct only if all of them match.
"""

from __future__ import annotations

import copy
import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Any, Callable

import backends

REFUSED = "refused"

#: Seats of ordinary flights: large enough that no merge ever overbooks,
#: so refusals come only from the one sold-out flight.
_OPEN_SEATS = 10**9
_SOLD_OUT_SEATS = 100

CORPUS_DOMAINS = ("ats", "dtms", "projectmgmt", "auction", "flight_booking")
CORPUS_GROUPS = 8
CORPUS_PARAMS = {
    "seats": _OPEN_SEATS,
    "weekly_limit": 40.0,
    "budget": 1000.0,
    "reserve_price": 50,
}
#: With the domains' own 10 registrations the repository holds 80.
BYSTANDERS = 70


@dataclass(frozen=True)
class Spec:
    name: str
    why: str
    backend: str  # "sim" | "asyncio" | "proc"
    family: str  # RNG stream: workloads of one family share their op stream
    flights: int  # ordinary flights
    blocks: int  # healthy blocks at scale 1.0 (run.py: --seconds 10)
    block_ops: int
    cycle_every: int  # a partition cycle follows every n-th healthy block
    degraded_ops: int
    sold_out_flight: bool = False  # one extra flight whose sales must be refused
    corpus: bool = False
    slices: bool = False  # trace mode also runs the R1–R5 truncated stacks


SPECS = {
    spec.name: spec
    for spec in (
        Spec(
            "sim_mix",
            "the middleware core does all the work and transport none: the "
            "lowest-noise baseline for every core-layer change",
            backend="sim", family="mix", flights=64,
            blocks=120, block_ops=1000, cycle_every=4, degraded_ops=300,
            sold_out_flight=True, slices=True,
        ),
        Spec(
            "sim_constraints",
            "80 registrations and five domains: repository search and "
            "validation dominate, and a toggled constraint makes lookup "
            "strategies pay for what they precompute",
            backend="sim", family="constraints", flights=CORPUS_GROUPS,
            blocks=120, block_ops=400, cycle_every=4, degraded_ops=300,
            corpus=True,
        ),
        Spec(
            "sim_partition",
            "a partition cycle after every block: the only workload where "
            "threats, negotiation and reconciliation carry real weight",
            backend="sim", family="partition", flights=32,
            blocks=100, block_ops=600, cycle_every=1, degraded_ops=400,
        ),
        Spec(
            "asyncio_mix",
            "the sim_mix op stream on the asyncio transport: same middleware "
            "work, but thread hand-offs are most of the cost",
            backend="asyncio", family="mix", flights=64,
            blocks=120, block_ops=300, cycle_every=4, degraded_ops=200,
            sold_out_flight=True,
        ),
        Spec(
            "proc_mix",
            "three OS processes over loopback TCP: frames and forwarding are "
            "most of the cost, so core-layer changes must show no change here",
            backend="proc", family="procmix", flights=16,
            blocks=100, block_ops=30, cycle_every=10, degraded_ops=60,
            sold_out_flight=True,
        ),
    )
}

Op = tuple[str, int, str, tuple, bool]  # caller, entity index, method, args, is_write


@dataclass
class Plan:
    spec: Spec
    seed: int
    healthy: list[list[Op]]
    degraded: list[list[Op]]  # one list per partition cycle
    expected_healthy: list[list[Any]] = field(default_factory=list)
    expected_degraded: list[list[Any]] = field(default_factory=list)
    baselines: list[dict[int, int]] = field(default_factory=list)
    initial: list[dict[str, Any]] = field(default_factory=list)
    final: list[dict[str, Any]] = field(default_factory=list)
    plan_hash: str = ""

    @property
    def attempted(self) -> int:
        return sum(map(len, self.healthy)) + sum(map(len, self.degraded))

    def cycle_after(self, block: int) -> int | None:
        """Index of the partition cycle that follows ``block``, if any."""
        if (block + 1) % self.spec.cycle_every:
            return None
        return (block + 1) // self.spec.cycle_every - 1


# ----------------------------------------------------------------------
# the oracle: business rules as plain functions over dict states
# ----------------------------------------------------------------------
_ALLOWED_COMPONENTS = {
    "Signal": {"Signal Controller", "Signal Cable"},
    "Power": {"Power Supply", "Power Cable", "Fuse"},
    "Radio": {"Transceiver", "Antenna"},
}
_ALARM_KINDS = ("Power", "Radio", "Signal")

World = list[dict[str, Any]]
Rule = Callable[..., Any]


def _sell(e: dict, w: World, count: int) -> Any:
    if e["sold"] + count > e["seats"]:
        return REFUSED
    e["sold"] += count
    return e["sold"]


def _cancel(e: dict, w: World, count: int) -> Any:
    e["sold"] = max(0, e["sold"] - count)
    return e["sold"]


def _set_alarm_kind(e: dict, w: World, kind: str) -> Any:
    component = w[e["_report"]]["affected_component"]
    if component and component not in _ALLOWED_COMPONENTS[kind]:
        return REFUSED
    e["alarm_kind"] = kind
    return None


def _set_component(e: dict, w: World, component: str) -> Any:
    kind = w[e["_alarm"]]["alarm_kind"]
    if kind and component not in _ALLOWED_COMPONENTS[kind]:
        return REFUSED
    e["affected_component"] = component
    return None


def _channel_agrees(e: dict, w: World, frequency: int, codec: str, enabled: bool) -> bool:
    peer = w[e["_peer"]]
    if not enabled and not peer["enabled"]:
        return True
    return (frequency, codec) == (peer["frequency"], peer["codec"])


def _configure(e: dict, w: World, frequency: int, codec: str) -> Any:
    if not _channel_agrees(e, w, frequency, codec, e["enabled"]):
        return REFUSED
    e["frequency"], e["codec"] = frequency, codec
    return None


def _enable(e: dict, w: World) -> Any:
    if not _channel_agrees(e, w, e["frequency"], e["codec"], True):
        return REFUSED
    e["enabled"] = True
    return None


def _log_hours(e: dict, w: World, hours: float) -> Any:
    if e["hours_logged"] + hours > e["weekly_limit"]:
        return REFUSED
    e["hours_logged"] += hours
    return e["hours_logged"]


def _charge(e: dict, w: World, amount: float) -> Any:
    if e["cost"] + amount > e["budget"]:
        return REFUSED
    e["cost"] += amount
    return e["cost"]


def _place_bid(e: dict, w: World, bidder: str, amount: int) -> Any:
    e["bids"] += 1
    if e["closed"] or amount <= e["highest_bid"]:
        return e["highest_bid"]
    e["highest_bid"], e["winner"] = amount, bidder
    return amount


def _close_auction(e: dict, w: World) -> Any:
    if e["winner"] and e["highest_bid"] < e["reserve_price"]:
        return REFUSED
    e["closed"] = True
    return e["winner"]


def _setter(name: str, value: Any) -> Rule:
    def rule(e: dict, w: World) -> Any:
        e[name] = value
        return None

    return rule


def _getter(name: str) -> Rule:
    return lambda e, w: e[name]


RULES: dict[tuple[str, str], Rule] = {
    ("Flight", "sell_tickets"): _sell,
    ("Flight", "cancel_tickets"): _cancel,
    ("Flight", "get_sold"): _getter("sold"),
    ("Flight", "free_seats"): lambda e, w: e["seats"] - e["sold"],
    ("Alarm", "set_alarm_kind"): _set_alarm_kind,
    ("Alarm", "close"): _setter("open", False),
    ("Alarm", "get_open"): _getter("open"),
    ("RepairReport", "set_affected_component"): _set_component,
    ("RepairReport", "complete"): _setter("completed", True),
    ("RepairReport", "get_completed"): _getter("completed"),
    ("ChannelEndpoint", "configure"): _configure,
    ("ChannelEndpoint", "enable"): _enable,
    ("ChannelEndpoint", "disable"): _setter("enabled", False),
    ("ChannelEndpoint", "get_frequency"): _getter("frequency"),
    ("ChannelEndpoint", "get_enabled"): _getter("enabled"),
    ("StaffMember", "log_hours"): _log_hours,
    ("StaffMember", "start_week"): _setter("hours_logged", 0.0),
    ("StaffMember", "get_hours_logged"): _getter("hours_logged"),
    ("ProjectRecord", "charge"): _charge,
    ("ProjectRecord", "activate"): _setter("active", True),
    ("ProjectRecord", "get_cost"): _getter("cost"),
    ("Auction", "place_bid"): _place_bid,
    ("Auction", "close_auction"): _close_auction,
    ("Auction", "reopen"): _setter("closed", False),
    ("Auction", "current_price"): _getter("highest_bid"),
    ("Auction", "get_highest_bid"): _getter("highest_bid"),
}


def _flight(seats: int, sold: int) -> dict[str, Any]:
    return {"_cls": "Flight", "seats": seats, "sold": sold}


def _corpus_group(domain: str, group: int, base: int) -> list[dict[str, Any]]:
    """Initial oracle state of one entity group, in the domain's layout
    order; ``base`` is the world index of the group's first entity."""
    if domain == "ats":
        return [
            {"_cls": "Alarm", "alarm_kind": _ALARM_KINDS[group % 3], "open": True,
             "_report": base + 1},
            {"_cls": "RepairReport", "affected_component": "", "completed": False,
             "_alarm": base},
        ]
    if domain == "dtms":
        return [
            {"_cls": "ChannelEndpoint", "frequency": 0, "codec": "", "enabled": False,
             "_peer": base + 1 - slot}
            for slot in (0, 1)
        ]
    if domain == "projectmgmt":
        return [
            {"_cls": "StaffMember", "hours_logged": 0.0,
             "weekly_limit": CORPUS_PARAMS["weekly_limit"]},
            {"_cls": "ProjectRecord", "cost": 0.0, "active": False,
             "budget": CORPUS_PARAMS["budget"]},
        ]
    if domain == "auction":
        return [
            {"_cls": "Auction", "reserve_price": CORPUS_PARAMS["reserve_price"],
             "highest_bid": 0, "winner": "", "bids": 0, "closed": False},
        ]
    if domain == "flight_booking":
        return [_flight(CORPUS_PARAMS["seats"], 0)]
    raise KeyError(domain)


def initial_world(spec: Spec) -> World:
    if not spec.corpus:
        world = [_flight(_OPEN_SEATS, 0) for _ in range(spec.flights)]
        if spec.sold_out_flight:
            world.append(_flight(_SOLD_OUT_SEATS, _SOLD_OUT_SEATS))
        return world
    world: World = []
    for domain in CORPUS_DOMAINS:
        for group in range(CORPUS_GROUPS):
            world.extend(_corpus_group(domain, group, len(world)))
    return world


def flight_decls(world: World) -> list[tuple[str, int, int]]:
    """``(oid, seats, sold)`` for a flights-only world."""
    return [(f"F{index}", e["seats"], e["sold"]) for index, e in enumerate(world)]


# ----------------------------------------------------------------------
# plan generation
# ----------------------------------------------------------------------
def scaled_blocks(spec: Spec, scale: float) -> int:
    """Healthy blocks at ``scale``: a whole number of partition cycles,
    at least one."""
    cycles = max(1, round(spec.blocks * scale / spec.cycle_every))
    return cycles * spec.cycle_every


def _flight_op(
    rng: random.Random, callers: tuple[str, ...], flights: int, sold_out: int | None
) -> Op:
    """60 % one-ticket sales, 40 % reads, uniform callers; 2 % of sales
    go to the sold-out flight and must be refused."""
    caller = callers[rng.randrange(len(callers))]
    if rng.random() < 0.6:
        if sold_out is not None and rng.random() < 0.02:
            return (caller, sold_out, "sell_tickets", (1,), True)
        return (caller, rng.randrange(flights), "sell_tickets", (1,), True)
    readable = flights if sold_out is None else flights + 1
    return (caller, rng.randrange(readable), "get_sold", (), False)


def _corpus_index() -> dict[tuple[str, str], list[int]]:
    """``(domain, class) -> layout slots`` holding that class."""
    slots: dict[tuple[str, str], list[int]] = {}
    for domain in CORPUS_DOMAINS:
        for slot, cls in enumerate(backends.domain_layout(domain)):
            slots.setdefault((domain, cls), []).append(slot)
    return slots


def _corpus_op(rng: random.Random, slots: dict, offsets: dict[str, int]) -> Op:
    domain = CORPUS_DOMAINS[rng.randrange(len(CORPUS_DOMAINS))]
    templates = backends.grammar(domain)
    roll = rng.random() * sum(template.weight for template in templates)
    for template in templates:
        roll -= template.weight
        if roll < 0:
            break
    layout = backends.domain_layout(domain)
    group = rng.randrange(CORPUS_GROUPS)
    slot = rng.choice(slots[(domain, template.cls)])
    caller = backends.NODES[rng.randrange(len(backends.NODES))]
    args = tuple(template.sample_args(rng, CORPUS_PARAMS))
    index = offsets[domain] + group * len(layout) + slot
    return (caller, index, template.method, args, not template.read)


def build_plan(spec: Spec, seed: int, scale: float = 1.0) -> Plan:
    """The seeded plan with the oracle's verdict on every operation.

    Healthy and degraded operations come from two RNG streams keyed by
    the workload *family*, so ``asyncio_mix`` replays a prefix of exactly
    the operations ``sim_mix`` runs.
    """
    blocks = scaled_blocks(spec, scale)
    world = initial_world(spec)
    healthy_rng = random.Random(f"ledger:{spec.family}:{seed}:healthy")
    degraded_rng = random.Random(f"ledger:{spec.family}:{seed}:degraded")
    sold_out = spec.flights if spec.sold_out_flight else None

    flight_base = 0
    if spec.corpus:
        slots = _corpus_index()
        offsets, cursor = {}, 0
        for domain in CORPUS_DOMAINS:
            offsets[domain] = cursor
            cursor += CORPUS_GROUPS * len(backends.domain_layout(domain))
        flight_base = offsets["flight_booking"]

    def next_healthy() -> Op:
        if spec.corpus:
            return _corpus_op(healthy_rng, slots, offsets)
        return _flight_op(healthy_rng, backends.NODES, spec.flights, sold_out)

    groups = backends.partition_groups(spec.backend)
    degraded_callers = tuple(node for group in groups for node in group)
    group_of = {node: index for index, group in enumerate(groups) for node in group}

    plan = Plan(spec=spec, seed=seed, healthy=[], degraded=[])
    plan.initial = copy.deepcopy(world)
    for block in range(blocks):
        ops = [next_healthy() for _ in range(spec.block_ops)]
        plan.healthy.append(ops)
        plan.expected_healthy.append([_apply(world, op) for op in ops])
        if plan.cycle_after(block) is None:
            continue
        ops = []
        for _ in range(spec.degraded_ops):
            caller, index, method, args, write = _flight_op(
                degraded_rng, degraded_callers, spec.flights, None
            )
            ops.append((caller, flight_base + index, method, args, write))
        flights = range(flight_base, flight_base + spec.flights)
        baseline = {index: world[index]["sold"] for index in flights}
        views = [copy.deepcopy(world) for _ in groups]
        plan.degraded.append(ops)
        plan.expected_degraded.append(
            [_apply(views[group_of[op[0]]], op) for op in ops]
        )
        plan.baselines.append(baseline)
        # §1.3's additive merge: every side's sales count.
        for index in flights:
            world[index]["sold"] = baseline[index] + sum(
                view[index]["sold"] - baseline[index] for view in views
            )
    plan.final = world
    plan.plan_hash = hashlib.sha256(
        json.dumps([spec.name, blocks, plan.healthy, plan.degraded]).encode()
    ).hexdigest()
    return plan


def _apply(world: World, op: Op) -> Any:
    entity = world[op[1]]
    return RULES[(entity["_cls"], op[2])](entity, world, *op[3])


# ----------------------------------------------------------------------
# deployment and judgement
# ----------------------------------------------------------------------
def deploy(backend: Any, spec: Spec) -> list[backends.Key]:
    """Create the workload's entities; returns their keys in world order."""
    if spec.corpus:
        return backend.deploy_corpus(
            CORPUS_DOMAINS, CORPUS_GROUPS, CORPUS_PARAMS, BYSTANDERS
        )
    return backend.deploy_flights(flight_decls(initial_world(spec)))


States = list[tuple[backends.Key, dict[str, dict[str, Any] | None]]]


def read_states(backend: Any, keys: list[backends.Key]) -> States:
    """Every entity's state on every node, in world order."""
    return [(key, backend.replica_states(key)) for key in keys]


def state_mismatches(states: States, world: World) -> list[str]:
    """Where any replica disagrees with the oracle's ``world`` (which
    also means: where replicas disagree with each other)."""
    problems = []
    for (key, replicas), expected in zip(states, world):
        for node, state in replicas.items():
            for name, value in expected.items():
                if name.startswith("_"):
                    continue
                if state is None or state.get(name) != value:
                    problems.append(
                        f"{key[0]}|{key[1]} on {node}: {name} is "
                        f"{None if state is None else state.get(name)!r}, oracle says {value!r}"
                    )
    return problems


def outcome_class(outcome: Any) -> str:
    if outcome == REFUSED:
        return "r"
    if isinstance(outcome, tuple) and outcome and outcome[0] == "error":
        return "e"
    return "k"


def outcome_digest(outcomes: list[Any], states: States) -> str:
    """sha256 over every op's outcome class and every replica's final
    state — the figure committed for seeds 1–3 in ``digests.json``."""
    text = "".join(map(outcome_class, outcomes)) + json.dumps(
        [[key, sorted(replicas.items())] for key, replicas in states],
        sort_keys=True, default=str,
    )
    return hashlib.sha256(text.encode()).hexdigest()
