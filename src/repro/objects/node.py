"""A simulated server node: container + invocation service + persistence."""

from __future__ import annotations

from typing import Any

from ..net import NodeId
from ..persistence import PersistenceEngine, StateHistory
from ..sim import CostLedger, SimClock
from ..tx import TransactionManager
from .container import Container
from .invocation import InvocationService
from .refs import ObjectRef


class NodeServices:
    """The middleware services a node (and its entities) can reach."""

    def __init__(
        self,
        clock: SimClock,
        ledger: CostLedger,
        txmgr: TransactionManager,
    ) -> None:
        self.clock = clock
        self.ledger = ledger
        self.txmgr = txmgr
        self.invocation_service: InvocationService | None = None

    def invoke_local(
        self, ref: ObjectRef, method_name: str, args: tuple[Any, ...] = ()
    ) -> Any:
        """Nested invocation entry point (AOP-intercepted path, §4.2.4)."""
        if self.invocation_service is None:
            raise RuntimeError("invocation service not wired")
        return self.invocation_service.invoke_local(ref, method_name, args)


class Node:
    """One simulated application-server node."""

    def __init__(
        self,
        node_id: NodeId,
        clock: SimClock,
        ledger: CostLedger,
        txmgr: TransactionManager,
    ) -> None:
        self.node_id = node_id
        self.services = NodeServices(clock, ledger, txmgr)
        self.persistence = PersistenceEngine(clock, ledger)
        self.state_history = StateHistory(self.persistence)
        self.container = Container(self)
        self.invocation_service = InvocationService(self)
        self.services.invocation_service = self.invocation_service

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Node({self.node_id!r}, {len(self.container)} entities)"
