"""Invocation service with client- and server-side interceptor chains.

JBoss represents every call as an explicit invocation object passed through
a configurable chain of interceptors (command pattern, §5.3, Fig. 4.5).
This module reproduces that structure: an :class:`Invocation` travels
through the caller's client chain, across the (simulated) network, and
through the target node's server chain until the final interceptor — the
container invoker — dispatches to the entity method.

Adding middleware services is, as in the paper, just a matter of putting a
new interceptor into the chain; the constraint-consistency and replication
services plug in exactly this way.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Any, Callable, Sequence

from ..net import NodeId
from .refs import ObjectRef

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .node import Node


class Invocation:
    """An explicit representation of one method invocation."""

    _ids = itertools.count(1)

    def __init__(
        self,
        ref: ObjectRef,
        method_name: str,
        args: tuple[Any, ...],
        caller_node: NodeId,
    ) -> None:
        self.invocation_id = next(Invocation._ids)
        self.ref = ref
        self.method_name = method_name
        # EJB-convention write detection (§4.3), decided here once: setters
        # are writes, getters are reads, and anything else is treated as a
        # write "to be on the safe side" (§5.1).
        self.is_getter = method_name.startswith("get_")
        self.is_setter = method_name.startswith("set_")
        self.is_write = not self.is_getter
        self.args = args
        self.caller_node = caller_node
        self.execution_node: NodeId | None = None
        self.result: Any = None
        self.redirected = False
        # Absolute simulated-time deadline; ``None`` means unbounded.  Set
        # by the client-side resilience interceptor (or the caller) and
        # enforced at client retry points and server interception points.
        self.deadline: float | None = None
        # Arbitrary payload associated by interceptors (security context,
        # transaction context, ... — "any desired additional payload can be
        # added to such an invocation", §5.3).
        self.metadata: dict[str, Any] = {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        # The process-global invocation_id stays out of the repr: the
        # network's payload-size estimate is ``len(repr(payload))``, and a
        # run-dependent id width would leak into traces and byte counters,
        # breaking same-seed trace equality.
        return (
            f"Invocation({self.ref}.{self.method_name}"
            f" from {self.caller_node})"
        )


Proceed = Callable[[], Any]


class Interceptor:
    """Base interceptor: override :meth:`intercept`."""

    name = "interceptor"

    def intercept(self, invocation: Invocation, proceed: Proceed) -> Any:
        return proceed()


class InterceptorChain:
    """Runs an invocation through a fixed sequence of interceptors."""

    def __init__(self, interceptors: Sequence[Interceptor]) -> None:
        self.interceptors = list(interceptors)

    def execute(self, invocation: Invocation) -> Any:
        return self._proceed(invocation, 0)

    def _proceed(self, invocation: Invocation, index: int) -> Any:
        if index >= len(self.interceptors):
            raise RuntimeError(
                "interceptor chain fell off the end — no dispatcher installed"
            )
        interceptor = self.interceptors[index]
        return interceptor.intercept(
            invocation, lambda: self._proceed(invocation, index + 1)
        )


class CostInterceptor(Interceptor):
    """Charges the modelled cost of traversing one interceptor hop."""

    name = "cost"

    def __init__(self, node: "Node", hops: int = 1) -> None:
        self.node = node
        self.cost = node.services.costs.interceptor_hop * hops

    def intercept(self, invocation: Invocation, proceed: Proceed) -> Any:
        self.node.persistence.charge("interceptor_hop", self.cost)
        return proceed()


class ContainerInvoker(Interceptor):
    """Final server-side interceptor: dispatch to the bean instance."""

    name = "container"

    def __init__(self, node: "Node") -> None:
        self.node = node

    def intercept(self, invocation: Invocation, proceed: Proceed) -> Any:
        entity = self.node.container.resolve(invocation.ref)
        method = getattr(entity, invocation.method_name)
        invocation.result = method(*invocation.args)
        return invocation.result


class InvocationService:
    """Per-node entry point for invocations.

    ``invoke`` runs the full client chain (which typically ends in the
    transport interceptor routing the call to the execution node's server
    chain).  ``invoke_local``/``run_server_chain`` enter the server chain
    directly — the path used for nested invocations intercepted AOP-style
    (§4.2.4) and for calls arriving over the network.
    """

    def __init__(self, node: "Node") -> None:
        self.node = node
        self.client_chain = InterceptorChain([])
        self.server_chain = InterceptorChain([])

    def invoke(self, ref: ObjectRef, method_name: str, args: tuple[Any, ...] = ()) -> Any:
        self.node.persistence.charge("invocation_base")
        invocation = Invocation(ref, method_name, args, self.node.node_id)
        return self.client_chain.execute(invocation)

    def invoke_local(self, ref: ObjectRef, method_name: str, args: tuple[Any, ...] = ()) -> Any:
        invocation = Invocation(ref, method_name, args, self.node.node_id)
        invocation.execution_node = self.node.node_id
        return self.server_chain.execute(invocation)

    def run_server_chain(self, invocation: Invocation) -> Any:
        invocation.execution_node = self.node.node_id
        return self.server_chain.execute(invocation)
