"""The transport interface: network + scheduler + clock behind one seam.

The middleware stack (CCMgr, replication, reconciliation, membership)
never talks to a concrete substrate.  Everything it needs from
"the outside world" is bundled here as a :class:`Transport`:

* a **clock** (``.now``, ``advance``) — the simulator's
  :class:`~repro.sim.clock.SimClock`, which modelled costs move forward,
  on every backend;
* a **scheduler** (``schedule_after`` / ``run_until`` / ``drain``) — the
  simulator's discrete-event queue, on every backend: timers fire only
  when a caller drives it;
* a **network** (a :class:`~repro.net.network.Network` subclass with
  ``send`` / ``register_handler``) — synchronous simulated delivery, or
  per-node mailboxes serviced by the node's own worker threads;
* a **group channel** (view-synchronous multicast with per-recipient acks);
* a **transaction guard** — a no-op on the single-threaded simulator, a
  re-entrant lock on backends where multiple client threads issue
  transactions concurrently (the middleware stack itself is not
  thread-safe; the guard serializes top-level business transactions, and
  with them every chain that charges the clock, while message delivery
  runs on the nodes' own threads).

Backends differ in delivery only, so a scenario replayed on either ends
with the same outcome at the same simulated time.  Golden traces and the
model checker's schedule exploration stay on the sim backend, the only
one whose delivery is a single thread.  See ``docs/TRANSPORT.md`` for
the full contract.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Any, ContextManager, Sequence

from ..net import NodeId


#: The single-threaded backends' transaction guard: stateless, so one
#: instance serves every entry into every cluster.
_NO_GUARD: ContextManager[None] = nullcontext()


class Transport:
    """Abstract execution substrate for a DeDiSys cluster.

    Concrete transports expose :attr:`clock`, :attr:`scheduler`,
    :attr:`network`, and a group channel via :meth:`make_channel`.
    """

    name: str = "abstract"

    clock: Any
    scheduler: Any
    network: Any

    def make_channel(self) -> Any:
        """Build the view-synchronous multicast channel for this backend."""
        raise NotImplementedError

    def tx_guard(self) -> ContextManager[None]:
        """Context manager serializing top-level business transactions.

        The simulator is single-threaded, so its guard is a no-op; real
        backends return a re-entrant lock shared by every cluster entry
        point.
        """
        return _NO_GUARD

    def close(self) -> None:
        """Release substrate resources (the nodes' worker threads)."""

    def __enter__(self) -> "Transport":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def build_transport(
    spec: str,
    node_ids: Sequence[NodeId],
    obs: Any = None,
) -> Transport:
    """Resolve a :class:`~repro.cluster.ClusterConfig` transport spec.

    ``"sim"`` builds the historical single-threaded backend, ``"asyncio"``
    the in-process threaded backend.
    """
    kind = spec.lower()
    if kind == "sim":
        from .sim import SimTransport

        return SimTransport(node_ids, obs=obs)
    if kind == "asyncio":
        from .asyncio_backend import AsyncioTransport

        return AsyncioTransport(node_ids, obs=obs)
    raise ValueError(f"unknown transport {spec!r} (expected 'sim' or 'asyncio')")
