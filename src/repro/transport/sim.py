"""The deterministic simulation backend behind the transport interface.

This is the historical substrate — :class:`~repro.sim.clock.SimClock`,
:class:`~repro.sim.scheduler.Scheduler`, :class:`~repro.net.network.SimNetwork`,
:class:`~repro.net.multicast.GroupChannel` — constructed in exactly the
order :class:`~repro.cluster.DedisysCluster` always built them, so that
same-seed traces stay byte-identical to the pre-transport code.  Golden
traces and the model checker's schedule exploration run on this backend
only; the threaded backend shares its clock and scheduler classes and
differs in delivery alone.
"""

from __future__ import annotations

from typing import Any, Sequence

from ..net import GroupChannel, NodeId, SimNetwork
from ..sim import Scheduler, SimClock
from .base import Transport


class SimTransport(Transport):
    """Deterministic single-process substrate (the default)."""

    name = "sim"

    def __init__(self, node_ids: Sequence[NodeId], obs: Any = None) -> None:
        self.clock = SimClock()
        self.scheduler = Scheduler(self.clock)
        self.network = SimNetwork(node_ids, scheduler=self.scheduler, obs=obs)

    def make_channel(self) -> GroupChannel:
        return GroupChannel(self.network)
