"""Simulated network with link failures, node crashes, and partitions.

The topology starts fully connected.  Failures are injected by failing
individual links (``fail_link``), by splitting the node set into partitions
(``partition`` — fails every link crossing partition boundaries), or by
crashing nodes.  Partitions are *derived* from the link state as connected
components, mirroring the dissertation's view that node and link failures
cannot be distinguished when they occur (§1.1): a crashed node simply
appears as a singleton partition to everyone else.

The failure-model bookkeeping itself lives in the substrate-independent
:class:`~repro.net.topology.Topology` base, and message *admission* in
:class:`Network`; both are shared with the wall-clock threaded backend
(``repro.transport``).  What :class:`SimNetwork` adds is the
*deterministic* delivery semantics: messages are delivered synchronously,
charging simulated latency on the injected scheduler's clock.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Any, Callable, Sequence

from ..sim import CostLedger, CostModel, Scheduler, charger
from .messages import Message, NodeCrashedError, NodeId, UnreachableError
from .topology import Topology

if TYPE_CHECKING:  # pragma: no cover
    from ..faults.injector import FaultInjector


def payload_size(payload: Any) -> int:
    """Deterministic byte estimate of a message payload.

    The simulation never serializes for real; the ``repr`` length is a
    stable, cheap stand-in good enough for per-link traffic accounting.
    """
    return len(repr(payload))


class Network(Topology):
    """Message admission, decided once for every substrate.

    A subclass supplies only *delivery*: a ``send`` that calls
    :meth:`_admit` and then hands the message to the destination, and
    :meth:`_delay`, how an injected link delay passes on its clock.  The
    uniform-loss roll takes no lock: only a single-threaded substrate may
    set ``loss_probability``.
    """

    def __init__(
        self,
        nodes: Sequence[NodeId],
        scheduler: Any,
        costs: CostModel | None = None,
        loss_probability: float = 0.0,
        seed: int = 0,
        obs: Any = None,
    ) -> None:
        if not 0.0 <= loss_probability < 1.0:
            raise ValueError("loss probability must be in [0, 1)")
        super().__init__(nodes, obs=obs)
        self.scheduler = scheduler
        self.costs = costs if costs is not None else CostModel()
        self.ledger = CostLedger()
        self.charge = charger(scheduler.clock, self.costs, self.ledger)
        self.loss_probability = loss_probability
        self._rng = random.Random(seed)
        self.injector: "FaultInjector | None" = None
        self.delivered_count = 0
        self._recorder: list[Message] | None = None
        self._m_sent = self.obs.registry.counter(
            "net_messages_sent_total", "point-to-point messages delivered, by kind"
        )
        self._m_dropped = self.obs.registry.counter(
            "net_messages_dropped_total", "messages not delivered, by reason"
        )
        self._m_link_bytes = self.obs.registry.counter(
            "net_link_bytes_total", "estimated payload bytes per directed link"
        )

    def install_fault_injector(self, injector: "FaultInjector") -> "FaultInjector":
        """Attach a fault injector consulted on every point-to-point send."""
        injector.bind_obs(self.obs)
        self.injector = injector
        return injector

    def record_deliveries(self) -> list[Message]:
        """Attach a recorder: the list every later delivery is appended to.

        A network retains no message on its own account; a checker that
        wants to see deliveries asks here, and empties the list it is
        handed whenever it has looked.
        """
        self._recorder = []
        return self._recorder

    def _note_delivery(self, message: Message) -> None:
        self.delivered_count += 1
        if self._recorder is not None:
            self._recorder.append(message)

    def _admit(
        self, source: NodeId, destination: NodeId, kind: str, payload: Any
    ) -> tuple[Message, int]:
        """Admit one point-to-point message; returns it and the extra copies to deliver.

        Raises :class:`UnreachableError` when no route exists and
        :class:`NodeCrashedError` when the source itself crashed.  A lossy
        link may drop the message (also surfaced as ``UnreachableError`` —
        the sender cannot tell a lost message from a partition).
        """
        if source in self._crashed:
            self._drop(source, destination, kind, "source-crashed")
            raise NodeCrashedError(source)
        if not self.reachable(source, destination):
            self._drop(source, destination, kind, "unreachable")
            raise UnreachableError(source, destination)
        if self.loss_probability and self._rng.random() < self.loss_probability:
            self._drop(source, destination, kind, "loss")
            raise UnreachableError(source, destination)
        duplicates = 0
        if self.injector is not None:
            decision = self.injector.on_send(source, destination, kind, payload)
            if decision.drop:
                self._drop(source, destination, kind, decision.reason or "fault")
                raise UnreachableError(source, destination)
            if decision.extra_delay > 0.0:
                self.charge("fault_delay", decision.extra_delay)
                self._delay(decision.extra_delay)
            duplicates = decision.duplicates
        message = Message(source, destination, kind, payload)
        if source != destination:
            self.charge("network_latency")
        if self.obs.enabled:
            size = payload_size(payload)
            self._m_sent.inc(kind=kind)
            self._m_link_bytes.inc(size, link=f"{source}->{destination}")
            self.obs.emit(
                "message_send",
                node=str(source),
                destination=destination,
                kind=kind,
                bytes=size,
            )
        return message, duplicates

    def _delay(self, seconds: float) -> None:
        """Let an injected link delay, already charged, pass in real time.

        Nothing to do where the charge itself moved the (simulated) clock.
        """

    def _drop(self, source: NodeId, destination: NodeId, kind: str, reason: str) -> None:
        if self.obs.enabled:
            self._m_dropped.inc(reason=reason)
            self.obs.emit(
                "message_drop",
                node=str(source),
                destination=destination,
                kind=kind,
                reason=reason,
            )


class SimNetwork(Network):
    """The message substrate shared by all simulated nodes."""

    def __init__(
        self,
        nodes: Sequence[NodeId],
        scheduler: Scheduler | None = None,
        costs: CostModel | None = None,
        loss_probability: float = 0.0,
        seed: int = 0,
        obs: Any = None,
    ) -> None:
        if scheduler is None:
            scheduler = Scheduler()
        super().__init__(nodes, scheduler, costs, loss_probability, seed, obs)
        self._handlers: dict[NodeId, Callable[[Message], Any]] = {}

    def register_handler(self, node: NodeId, handler: Callable[[Message], Any]) -> None:
        """Register the message handler for ``node``."""
        self._require_node(node)
        self._handlers[node] = handler

    # ------------------------------------------------------------------
    # messaging
    # ------------------------------------------------------------------
    def send(self, source: NodeId, destination: NodeId, kind: str, payload: Any = None) -> Any:
        """Admit a message, then run the destination's handler inline."""
        message, duplicates = self._admit(source, destination, kind, payload)
        self._note_delivery(message)
        handler = self._handlers.get(destination)
        if handler is None:
            return None
        result = handler(message)
        # A duplicating fault delivers extra copies of the *same* message;
        # the sender sees only the first result (as a real client would).
        for _ in range(duplicates):
            self._note_delivery(message)
            handler(message)
        return result
