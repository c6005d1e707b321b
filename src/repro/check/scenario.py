"""Scenarios: a workload composed with a fault script, as plain data.

A :class:`Scenario` is everything one model-checking run needs to rebuild
the world from scratch — node ids, an application *domain*, entity-group
count and parameters, a timestamped operation list, and a
:class:`~repro.faults.schedule.FaultSchedule` — kept as serializable data
so a violating schedule can be emitted as a self-contained JSON repro and
greedily shrunk (drop an op, drop a fault, re-run).

An :class:`Op` is one of five kinds: ``invoke`` (a business method on a
ref), ``tx`` (ordered invoke legs in one transaction), ``create`` (a new
entity), ``delete`` (a ref's entity) and ``reconcile``.  A run's refs are
the domain's, then one per ``create`` op in op order, served or not, so a
ref index never depends on what fired.  An ``invoke`` or ``tx`` carries
one negotiation answer: ``accept`` (an accept-all handler, the default)
or ``none`` (no handler: the constraint's static/default chain decides).
A DedisysTest script (:mod:`repro.evaluation.scripting`) parses into
this format too.

Domains are resolved through :mod:`repro.apps.registry`: the same
scenario schema drives flight booking, ATS, DTMS, project management and
auctions, so the corpus generator, the chaos replayer, and the DFS
explorer all consume one format.  Serialization is canonical — sorted
keys, JSON-native values — and round-trips losslessly
(``Scenario.from_dict(s.to_dict()) == s``).

On the simulator, operations are *scheduled as simulator events*, not
called inline: that is what creates choice points.  Ops that share a
timestamp with each other or with a scripted fault are concurrently
enabled, and the ordering policy decides who goes first — exactly the
interleaving dimension the single FIFO schedule never exercised.

Three canonical scenarios mirror the dissertation's flight-booking story
(§1.3): a healthy baseline, a single partition with degraded-mode ticket
sales on both sides followed by heal + reconciliation, and a three-way
split with a partial heal (PR 3's epoch-aware path) before full repair.
Three booking scenarios tell the same story on a three-node cluster
with one explicit step per timestamp, so every backend replays them the
same way: the §1.3 overbooking through the additive merge and the
rebooking handler, repeated partition/heal cycles, and degraded sales
accepted as threats that reconciliation resolves.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Mapping, Sequence

from ..apps.registry import Domain, get_domain
from ..cluster import ClusterConfig, DedisysCluster
from ..faults.schedule import FaultSchedule


def _jsonify(value: Any) -> Any:
    """Canonicalize a parameter value to JSON-native types."""
    if isinstance(value, (tuple, list)):
        return [_jsonify(item) for item in value]
    if isinstance(value, Mapping):
        return {str(key): _jsonify(item) for key, item in value.items()}
    return value


@dataclass(frozen=True)
class Op:
    """One scheduled workload operation, of one of five kinds:

    - ``invoke``: the business ``method`` with ``args`` on the entity at
      ``ref_index``, called on ``node``;
    - ``tx``: the ``legs`` — ``(ref index, method, args)`` — in order, in
      one transaction on ``node``;
    - ``create``: ``args`` are ``(class, oid, attributes)``, created with
      ``node`` as home; the run's refs gain ``ObjectRef(class, oid)``;
    - ``delete``: the entity at ``ref_index``, from ``node``;
    - ``reconcile``: the cluster's reconciliation phase.

    ``answer`` is an ``invoke`` or ``tx`` op's negotiation answer:
    ``accept`` (the default) or ``none``.
    """

    at: float
    kind: str
    node: str = ""
    ref_index: int = 0
    method: str = ""
    args: tuple[Any, ...] = ()
    legs: tuple[tuple[int, str, tuple[Any, ...]], ...] = ()
    answer: str = "accept"

    def __post_init__(self) -> None:
        if self.kind not in ("invoke", "tx", "create", "delete", "reconcile"):
            raise ValueError(f"unknown op kind {self.kind!r}")
        if self.kind == "invoke" and not (self.node and self.method):
            raise ValueError("invoke ops need a node and a method")
        if self.kind == "tx" and not (self.node and self.legs):
            raise ValueError("tx ops need a node and at least one leg")
        if self.kind == "create" and not (self.node and len(self.args) == 3):
            raise ValueError("create ops need a node and (class, oid, attributes)")
        if self.kind == "delete" and not self.node:
            raise ValueError("delete ops need a node")
        if self.answer not in ("accept", "none"):
            raise ValueError(f"unknown negotiation answer {self.answer!r}")

    def label(self) -> str:
        if self.kind == "reconcile":
            return "op:reconcile"
        if self.kind == "tx":
            legs = "+".join(f"{method}:F{index}" for index, method, _args in self.legs)
            return f"op:tx:{legs}@{self.node}"
        if self.kind == "create":
            return f"op:create:{self.args[0]}#{self.args[1]}@{self.node}"
        if self.kind == "delete":
            return f"op:delete:F{self.ref_index}@{self.node}"
        return f"op:{self.method}:F{self.ref_index}@{self.node}"

    def calls(self) -> tuple[tuple[int, str, tuple[Any, ...]], ...]:
        """The ``(ref index, method, args)`` business calls this op makes."""
        if self.kind == "invoke":
            return ((self.ref_index, self.method, self.args),)
        return self.legs

    def to_dict(self) -> dict[str, Any]:
        data = {
            "at": self.at,
            "kind": self.kind,
            "node": self.node,
            "ref_index": self.ref_index,
            "method": self.method,
            "args": _jsonify(list(self.args)),
        }
        if self.legs:
            data["legs"] = _jsonify(self.legs)
        if self.answer != "accept":
            data["answer"] = self.answer
        return data

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Op":
        return cls(
            at=data["at"],
            kind=data["kind"],
            node=data.get("node", ""),
            ref_index=data.get("ref_index", 0),
            method=data.get("method", ""),
            args=tuple(data.get("args", ())),
            legs=tuple(
                (index, method, tuple(args)) for index, method, args in data.get("legs", ())
            ),
            answer=data.get("answer", "accept"),
        )


@dataclass(frozen=True)
class Scenario:
    """A reproducible world: domain + cluster shape + workload + faults.

    ``entities`` counts *entity groups* of the domain's layout (one
    flight, one alarm/report pair, one wired channel, ...); ``params``
    carries domain and topology knobs (``seats``, ``healthy_sold``,
    ``reserve_price``, ``node_weights``, ``burst_loss``, ``partition_sensitive``,
    ...) and must stay JSON-native — construction canonicalizes tuples to
    lists so serialization round-trips to an equal scenario.  An empty
    ``domain`` names none: the caller built the world and plays the
    scenario on it (a DedisysTest script), and reconciliation runs with
    no handler.
    """

    name: str
    domain: str = "flight_booking"
    node_ids: tuple[str, ...] = ("n1", "n2", "n3")
    entities: int = 2
    protocol: str = "p4"
    params: dict[str, Any] = field(default_factory=dict)
    ops: tuple[Op, ...] = ()
    # Fault script as plain ``(at, action, args)`` tuples (JSON-able).
    fault_events: tuple[tuple[float, str, tuple[Any, ...]], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "node_ids", tuple(self.node_ids))
        object.__setattr__(self, "params", _jsonify(dict(self.params)))

    # ------------------------------------------------------------------
    # building
    # ------------------------------------------------------------------
    @property
    def domain_spec(self) -> Domain:
        return get_domain(self.domain)

    def build(
        self, obs: Any = None, transport: Any = "sim"
    ) -> tuple[DedisysCluster, tuple[Any, ...]]:
        """A fresh cluster on ``transport`` with the entities deployed
        (faults NOT installed)."""
        spec = self.domain_spec
        weights = self.params.get("node_weights")
        cluster = DedisysCluster(
            ClusterConfig(
                node_ids=self.node_ids,
                # The unreplicated baseline of the availability study: one
                # copy per entity, and the protocol name is never built.
                enable_replication=self.protocol != "no-replication",
                protocol=self.protocol,
                obs=obs,
                node_weights=(
                    {str(node): float(weight) for node, weight in weights.items()}
                    if weights
                    else None
                ),
                transport=transport,
            )
        )
        spec.deploy(cluster, self.params)
        refs = spec.create_entities(cluster, self.node_ids, self.entities, self.params)
        burst_loss = self.params.get("burst_loss")
        if burst_loss is not None:
            from ..faults.injector import FaultInjector

            cluster.network.install_fault_injector(
                FaultInjector.burst_loss(
                    float(burst_loss), seed=int(self.params.get("seed", 0))
                )
            )
        return cluster, refs

    def reconcile_handler(self, cluster: DedisysCluster) -> Any:
        """The domain's constraint reconciliation handler (may be None)."""
        factory = self._handler_factory("reconcile_handler")
        return factory(cluster) if factory is not None else None

    def replica_handler(self, refs: tuple[Any, ...]) -> Any:
        """The domain's replica-conflict handler for these params (None:
        latest-update-wins)."""
        factory = self._handler_factory("replica_handler")
        return factory(refs, self.params) if factory is not None else None

    def _handler_factory(self, name: str) -> Any:
        # A world its caller built (``domain=""``) reconciles with none.
        return getattr(self.domain_spec, name) if self.domain else None

    def shifted_fault_schedule(self, start: float) -> FaultSchedule:
        """The fault script with times anchored at ``start`` (scenario
        times are relative to the end of cluster construction)."""
        return FaultSchedule.from_events(
            (start + at, action, args) for at, action, args in self.fault_events
        )

    # ------------------------------------------------------------------
    # shrinking support
    # ------------------------------------------------------------------
    def without_fault(self, index: int) -> "Scenario":
        events = tuple(
            event for position, event in enumerate(self.fault_events) if position != index
        )
        return replace(self, fault_events=events)

    def without_op(self, index: int) -> "Scenario":
        ops = tuple(op for position, op in enumerate(self.ops) if position != index)
        return replace(self, ops=ops)

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "domain": self.domain,
            "node_ids": list(self.node_ids),
            "entities": self.entities,
            "protocol": self.protocol,
            "params": _jsonify(self.params),
            "ops": [op.to_dict() for op in self.ops],
            "fault_events": [
                [at, action, _jsonify(list(args))]
                for at, action, args in self.fault_events
            ],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Scenario":
        return cls(
            name=data["name"],
            domain=data.get("domain", "flight_booking"),
            node_ids=tuple(data["node_ids"]),
            entities=data.get("entities", 2),
            protocol=data.get("protocol", "p4"),
            params=dict(data.get("params", {})),
            ops=tuple(Op.from_dict(op) for op in data["ops"]),
            fault_events=tuple(
                (at, action, _freeze_args(action, args))
                for at, action, args in data["fault_events"]
            ),
        )


def _freeze_args(action: str, args: Sequence[Any]) -> tuple[Any, ...]:
    if action == "partition":
        return tuple(tuple(group) for group in args)
    return tuple(args)


def _sell(at: float, node: str, flight: int, count: int) -> Op:
    return Op(at=at, kind="invoke", node=node, ref_index=flight,
              method="sell_tickets", args=(count,))


def _read(at: float, node: str, flight: int) -> Op:
    return Op(at=at, kind="invoke", node=node, ref_index=flight, method="get_sold")


# ----------------------------------------------------------------------
# canonical scenarios
# ----------------------------------------------------------------------
def healthy_scenario() -> Scenario:
    """No faults; colliding timestamps still give reorderable schedules."""
    return Scenario(
        name="healthy",
        ops=(
            _sell(0.2, "n1", 0, 2),
            _sell(0.2, "n2", 1, 3),
            _read(0.2, "n3", 0),
            _sell(0.4, "n3", 0, 1),
            _sell(0.4, "n1", 1, 2),
            _read(0.6, "n2", 1),
            Op(at=0.8, kind="reconcile"),
        ),
    )


def single_partition_scenario() -> Scenario:
    """One partition + heal: sales continue on both sides (P4), then the
    system reconciles.  Ops collide with the partition and heal events."""
    return Scenario(
        name="single_partition",
        ops=(
            _sell(0.2, "n1", 0, 2),
            _sell(0.3, "n2", 0, 3),  # collides with the partition fault
            _sell(0.3, "n1", 1, 1),
            _sell(0.45, "n3", 0, 2),
            _sell(0.45, "n1", 0, 1),
            _sell(0.6, "n2", 1, 2),  # collides with the heal fault
            _read(0.6, "n3", 0),
            Op(at=0.7, kind="reconcile"),
        ),
        fault_events=(
            (0.3, "partition", (("n1",), ("n2", "n3"))),
            (0.6, "heal_all", ()),
        ),
    )


def partial_heal_scenario() -> Scenario:
    """Three-way split, a partial merge reconciled mid-degraded (epoch
    path of PR 3), then full heal and a final reconciliation."""
    return Scenario(
        name="partial_heal",
        node_ids=("n1", "n2", "n3", "n4"),
        ops=(
            _sell(0.2, "n1", 0, 2),
            _sell(0.3, "n2", 0, 3),  # collides with the three-way split
            _sell(0.4, "n3", 0, 1),
            _sell(0.4, "n1", 1, 2),
            _sell(0.5, "n2", 1, 1),  # collides with the partial heal
            Op(at=0.55, kind="reconcile"),
            _sell(0.6, "n1", 0, 1),
            _sell(0.7, "n4", 1, 2),  # collides with the full heal
            Op(at=0.8, kind="reconcile"),
        ),
        fault_events=(
            (0.3, "partition", (("n1",), ("n2",), ("n3", "n4"))),
            (0.5, "heal_link", ("n1", "n2")),
            (0.7, "heal_all", ()),
        ),
    )


CANONICAL_SCENARIOS = {
    "healthy": healthy_scenario,
    "single_partition": single_partition_scenario,
    "partial_heal": partial_heal_scenario,
}


_ABC = ("a", "b", "c")


def _split_sales(
    name: str, seats: int, sold: int, sales: tuple[tuple[float, str, int], ...]
) -> Scenario:
    """One flight sells ``sold`` of ``seats`` healthy, then ``sales``
    (``(at, node, count)``) while ``a`` is cut off from ``b`` and ``c``;
    the heal is reconciled with the additive merge from ``sold``."""
    return Scenario(
        name=name,
        node_ids=_ABC,
        entities=1,
        params={"seats": seats, "healthy_sold": [sold]},
        ops=(
            _sell(0.1, "a", 0, sold),
            *(_sell(at, node, 0, count) for at, node, count in sales),
            Op(at=0.5, kind="reconcile"),
        ),
        fault_events=((0.2, "partition", (("a",), ("b", "c"))), (0.4, "heal_all", ())),
    )


def flight_booking_scenario() -> Scenario:
    """§1.3: each side stays within capacity on its own replica (79 and
    78 of 80), only the additive merge overbooks (75 + 4 + 3 = 82), and
    the rebooking handler cleans up."""
    return _split_sales("flight_booking", 80, 75, ((0.3, "a", 4), (0.3, "b", 3)))


def reconcile_threats_scenario() -> Scenario:
    """Sales from the partition without the designated primary run on a
    temporary primary whose replica may be stale: the CCMgr accepts them
    as POSSIBLY_SATISFIED threats (§3.1), and re-evaluation on the merged
    state after the heal finds the constraint satisfied and removes them."""
    return _split_sales("reconcile_threats", 50, 10, ((0.3, "b", 2), (0.35, "c", 1)))


def oscillating_partition_scenario() -> Scenario:
    """Three partition/heal cycles, every node selling on both flights
    in each, reconciled (latest update wins) after every heal."""
    splits = ((("a",), ("b", "c")), (("a", "b"), ("c",)), (("b",), ("a", "c")))
    ops: list[Op] = []
    faults: list[tuple[float, str, tuple[Any, ...]]] = []
    for cycle, split in enumerate(splits):
        faults += [(cycle + 0.1, "partition", split), (cycle + 0.3, "heal_all", ())]
        ops += [_sell(cycle + 0.2, node, flight, 1) for flight in (0, 1) for node in _ABC]
        ops.append(Op(at=cycle + 0.4, kind="reconcile"))
    return Scenario(
        name="oscillating_partition", node_ids=_ABC, ops=tuple(ops), fault_events=tuple(faults)
    )


BOOKING_SCENARIOS = {
    "flight_booking": flight_booking_scenario,
    "oscillating_partition": oscillating_partition_scenario,
    "reconcile_threats": reconcile_threats_scenario,
}
