"""Invocation service with client- and server-side interceptor chains.

JBoss represents every call as an explicit invocation object passed through
a configurable chain of interceptors (command pattern, §5.3, Fig. 4.5).
This module reproduces that structure: an :class:`Invocation` travels
through the caller's client chain, across the (simulated) network, and
through the target node's server chain until the final interceptor — the
container invoker — dispatches to the entity method.

Adding middleware services is, as in the paper, just a matter of putting a
new interceptor into the chain; the constraint-consistency and replication
services plug in exactly this way.  No interceptor only charges: the
chains' hops are charged by :class:`InvocationService` where a chain starts.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Sequence

from ..net import NodeId
from ..sim import COSTS
from .refs import ObjectRef

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .entity import Entity
    from .node import Node


class Invocation:
    """An explicit representation of one method invocation."""

    __slots__ = (
        "ref", "method_name", "is_write", "args", "caller_node",
        "execution_node", "entity", "result", "redirected", "post_contexts",
    )

    def __init__(
        self,
        ref: ObjectRef,
        method_name: str,
        args: tuple[Any, ...],
        caller_node: NodeId,
    ) -> None:
        self.ref = ref
        self.method_name = method_name
        # EJB-convention write detection (§4.3), decided here once: getters
        # are reads, and setters and anything else are treated as writes
        # "to be on the safe side" (§5.1).
        self.is_write = not method_name.startswith("get_")
        self.args = args
        self.caller_node = caller_node
        self.execution_node: NodeId | None = None
        # The target entity on the execution node, resolved by the first
        # server interceptor that needs it and read by the rest; cleared
        # whenever a server chain starts, so a forwarded call resolves the
        # replica of the node that runs it.
        self.entity: "Entity | None" = None
        self.result: Any = None
        self.redirected = False
        # The CCMgr's postcondition contexts with their @pre snapshots,
        # set before the call for a method that has postconditions and read
        # after it — the payload an interceptor adds to an invocation (§5.3).
        self.post_contexts: list[tuple[Any, Any]] | None = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        # The network's payload-size estimate is ``len(repr(payload))``, so
        # the repr holds only what is the same in every same-seed run.
        return (
            f"Invocation({self.ref}.{self.method_name}"
            f" from {self.caller_node})"
        )


Proceed = Callable[[Invocation], Any]

#: The seconds one chain's traversal charges: two hops, the proxy and the chain.
_HOPS_S = 2 * COSTS["interceptor_hop"]


def _fell_off_the_end(invocation: Invocation) -> Any:
    raise RuntimeError("interceptor chain fell off the end — no dispatcher installed")


class Interceptor:
    """Base interceptor: override :meth:`intercept`, which continues the
    call (once, or not at all) with ``self.proceed(invocation)``.

    ``proceed`` is the successor's ``intercept``, bound once, when an
    :class:`InterceptorChain` links this interceptor; an interceptor
    belongs to one chain.
    """

    name = "interceptor"
    proceed: Proceed | None = None

    def intercept(self, invocation: Invocation) -> Any:
        return self.proceed(invocation)


class InterceptorChain:
    """Runs an invocation through a fixed sequence of interceptors, linked
    once, here: each interceptor gets its successor's ``intercept`` as its
    ``proceed``, so a hop is one call, with no wrapper between them."""

    def __init__(self, interceptors: Sequence[Interceptor]) -> None:
        self.interceptors = tuple(interceptors)
        proceed: Proceed = _fell_off_the_end
        for interceptor in reversed(self.interceptors):
            if interceptor.proceed is not None:
                raise ValueError(f"{interceptor!r} is already linked into a chain")
            interceptor.proceed = proceed
            proceed = interceptor.intercept
        self.execute: Proceed = proceed


class ContainerInvoker(Interceptor):
    """Final server-side interceptor: dispatch to the bean instance."""

    name = "container"

    def __init__(self, node: "Node") -> None:
        self.node = node

    def intercept(self, invocation: Invocation) -> Any:
        entity = invocation.entity or self.node.container.resolve_target(invocation)
        method = getattr(entity, invocation.method_name)
        invocation.result = method(*invocation.args)
        return invocation.result


class InvocationService:
    """Per-node entry point for invocations.

    ``invoke`` charges ``invocation_base`` and the client chain's
    ``interceptor_hop`` and runs that chain (which typically ends in the
    transport interceptor routing the call to the execution node's server
    chain).  ``invoke_local``/``run_server_chain`` charge the server chain's
    ``interceptor_hop`` and enter it directly — the path used for nested
    invocations intercepted AOP-style (§4.2.4) and for calls arriving over
    the network.
    """

    def __init__(self, node: "Node") -> None:
        self.node = node
        self.client_chain = InterceptorChain([])
        self.server_chain = InterceptorChain([])

    def invoke(self, ref: ObjectRef, method_name: str, args: tuple[Any, ...] = ()) -> Any:
        charge = self.node.persistence.charge
        charge("invocation_base")
        charge("interceptor_hop", _HOPS_S)
        invocation = Invocation(ref, method_name, args, self.node.node_id)
        return self.client_chain.execute(invocation)

    def invoke_local(self, ref: ObjectRef, method_name: str, args: tuple[Any, ...] = ()) -> Any:
        invocation = Invocation(ref, method_name, args, self.node.node_id)
        invocation.execution_node = self.node.node_id
        self.node.persistence.charge("interceptor_hop", _HOPS_S)
        return self.server_chain.execute(invocation)

    def run_server_chain(self, invocation: Invocation) -> Any:
        invocation.execution_node = self.node.node_id
        invocation.entity = None
        self.node.persistence.charge("interceptor_hop", _HOPS_S)
        return self.server_chain.execute(invocation)
