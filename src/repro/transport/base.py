"""The transport interface: network + scheduler + clock behind one seam.

The middleware stack (CCMgr, replication, reconciliation, membership,
adaptation) never talks to a concrete substrate.  Everything it needs from
"the outside world" is bundled here as a :class:`Transport`:

* a **clock** (``.now``, ``advance``) — simulated time that modelled costs
  move forward, or a wall clock that cost charges cannot move;
* a **scheduler** (``schedule_after`` / ``run_until`` / ``drain``) — the
  discrete-event queue, or real timers firing on a timer thread;
* a **network** (a :class:`~repro.net.network.Network` subclass with
  ``send`` / ``register_handler``) — synchronous simulated delivery, or
  per-node mailboxes serviced by the node's own worker threads;
* a **group channel** (view-synchronous multicast with per-recipient acks);
* a **transaction guard** — a no-op on the single-threaded simulator, a
  re-entrant lock on backends where multiple client threads issue
  transactions concurrently (the middleware stack itself is not
  thread-safe; the guard serializes top-level business transactions while
  message delivery, timers, and failure detection stay concurrent).

The determinism boundary is the transport: golden traces, the model
checker, and replint's clock rules apply to the sim backend only, while
the asyncio backend trades replayability for wall-clock measurements and
real concurrency.  See ``docs/TRANSPORT.md`` for the full contract.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Any, ContextManager, Sequence

from ..net import NodeId
from ..sim import CostModel


#: The single-threaded backends' transaction guard: stateless, so one
#: instance serves every entry into every cluster.
_NO_GUARD: ContextManager[None] = nullcontext()


class Transport:
    """Abstract execution substrate for a DeDiSys cluster.

    Concrete transports expose :attr:`clock`, :attr:`scheduler`,
    :attr:`network`, and a group channel via :meth:`make_channel`.
    ``deterministic`` tells callers (tests, the model checker, golden
    traces) whether same-seed replay is byte-identical.
    """

    name: str = "abstract"
    deterministic: bool = False

    clock: Any
    scheduler: Any
    network: Any

    def make_channel(self, group: str = "dedisys") -> Any:
        """Build the view-synchronous multicast channel for this backend."""
        raise NotImplementedError

    def tx_guard(self) -> ContextManager[None]:
        """Context manager serializing top-level business transactions.

        The simulator is single-threaded, so its guard is a no-op; real
        backends return a re-entrant lock shared by every cluster entry
        point.
        """
        return _NO_GUARD

    def settle(self, seconds: float) -> None:
        """Let ``seconds`` of transport time pass, firing due timers.

        On the simulator this advances the simulated clock through the
        scheduler; on real backends it sleeps wall-clock time while the
        timer thread fires whatever comes due.
        """
        self.scheduler.run_until(self.clock.now + seconds)

    def close(self) -> None:
        """Release substrate resources (threads, sockets, executors)."""

    def __enter__(self) -> "Transport":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def build_transport(
    spec: "str | Transport",
    node_ids: Sequence[NodeId],
    costs: CostModel | None = None,
    seed: int = 0,
    obs: Any = None,
) -> Transport:
    """Resolve a :class:`~repro.cluster.ClusterConfig` transport spec.

    ``"sim"`` builds the historical deterministic backend, ``"asyncio"``
    the in-process wall-clock backend.  A ready :class:`Transport`
    instance passes through untouched (it must cover the same node ids).
    """
    if isinstance(spec, Transport):
        if tuple(spec.network.nodes) != tuple(node_ids):
            raise ValueError(
                f"transport covers nodes {spec.network.nodes}, "
                f"cluster wants {tuple(node_ids)}"
            )
        return spec
    kind = spec.lower()
    if kind == "sim":
        from .sim import SimTransport

        return SimTransport(node_ids, costs=costs, seed=seed, obs=obs)
    if kind == "asyncio":
        from .asyncio_backend import AsyncioTransport

        return AsyncioTransport(node_ids, costs=costs, seed=seed, obs=obs)
    raise ValueError(f"unknown transport {spec!r} (expected 'sim' or 'asyncio')")
