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

from typing import TYPE_CHECKING, Any

from ..obs import ensure_obs
from ..objects import Interceptor, Invocation, Node
from .ccmgr import ConstraintConsistencyManager

if TYPE_CHECKING:  # pragma: no cover
    from ..objects.invocation import Proceed

# Simulated per-invocation latencies sit in the sub-millisecond to
# tens-of-milliseconds range (Ch. 5 cost model); edges chosen to resolve
# that band.
_LATENCY_BUCKETS = (0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1)


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
        self._m_invocations = self.obs.registry.counter(
            "ccm_invocations_total", "intercepted invocations, by method and outcome"
        )
        self._m_latency = self.obs.registry.histogram(
            "ccm_invocation_latency_seconds",
            "simulated end-to-end latency of intercepted invocations",
            buckets=_LATENCY_BUCKETS,
        )

    def intercept(self, invocation: Invocation, proceed: "Proceed") -> Any:
        entity = self.node.container.resolve(invocation.ref)
        if not self.obs.enabled:
            self.ccmgr.before_invocation(invocation, entity)
            result = proceed(invocation)
            self.ccmgr.after_invocation(invocation, entity)
            return result
        started = self._clock.now
        outcome = "ok"
        try:
            self.ccmgr.before_invocation(invocation, entity)
            result = proceed(invocation)
            self.ccmgr.after_invocation(invocation, entity)
            return result
        except BaseException as exc:
            outcome = type(exc).__name__
            raise
        finally:
            latency = self._clock.now - started
            self._m_invocations.inc(method=invocation.method_name, outcome=outcome)
            self._m_latency.observe(latency, method=invocation.method_name)
            self.obs.emit(
                "invocation",
                node=str(self.node.node_id),
                ref=invocation.ref,
                method=invocation.method_name,
                latency=latency,
                outcome=outcome,
            )
