"""Invocation-service interceptor notifying the CCMgr (§4.2.3, §4.2.4).

One interceptor in the server chain is responsible for appropriately
including the CCMgr in the processing of an invocation: it notifies the
manager before and after the call so preconditions, postconditions and
invariants are validated at their trigger points.

When observability is attached the interceptor doubles as the invocation
probe: it measures the *simulated* latency of every intercepted call
(constraint validation included) and emits one ``invocation`` trace event
with the outcome — ``ok`` or the raised error's class name.
"""

from __future__ import annotations

from typing import Any

from ..obs import ensure_obs
from ..objects import Interceptor, Invocation, Node
from .ccmgr import ConstraintConsistencyManager


class CCMInterceptor(Interceptor):
    """Triggers constraint validation around each intercepted invocation."""

    name = "constraint-consistency"

    def __init__(
        self, node: Node, ccmgr: ConstraintConsistencyManager, obs: Any = None
    ) -> None:
        self.node = node
        self.ccmgr = ccmgr
        # The clock is consulted twice per observed interception (hot
        # path); resolve the service chain once instead of per call.
        self._clock = node.services.clock
        self.obs = ensure_obs(obs)

    def intercept(self, invocation: Invocation) -> Any:
        entity = invocation.entity or self.node.container.resolve_target(invocation)
        if not self.obs.enabled:
            self.ccmgr.before_invocation(invocation, entity)
            result = self.proceed(invocation)
            self.ccmgr.after_invocation(invocation, entity)
            return result
        started = self._clock.now
        outcome = "ok"
        try:
            self.ccmgr.before_invocation(invocation, entity)
            result = self.proceed(invocation)
            self.ccmgr.after_invocation(invocation, entity)
            return result
        except BaseException as exc:
            outcome = type(exc).__name__
            raise
        finally:
            self.obs.emit(
                "invocation",
                node=str(self.node.node_id),
                ref=invocation.ref,
                method=invocation.method_name,
                latency=self._clock.now - started,
                outcome=outcome,
            )
