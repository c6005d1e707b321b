"""Group membership service (GMS).

Detects node and link failures as well as re-joins after recovery or
network reunification (§4.1) by watching the simulated network's topology.
Each live node perceives a *view*: the set of nodes in its partition.  When
a node's view changes, registered listeners are notified with the old and
new views — the replication service uses the "new nodes joined" case to
start the reconciliation phase (Fig. 4.6).

The GMS also supports the weighted-partition mechanism of §5.5.2: nodes can
be assigned weights and any component can ask for the weight fraction of
the current partition relative to the whole system, which
partition-sensitive constraints use to split datasets at runtime.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from ..net import NodeId, SimNetwork
from ..obs import ensure_obs

ViewListener = Callable[[NodeId, "View", "View"], None]


@dataclass(frozen=True)
class View:
    """One node's perception of its partition."""

    view_id: int
    members: frozenset[NodeId]

    def __contains__(self, node: NodeId) -> bool:
        return node in self.members

    def __len__(self) -> int:
        return len(self.members)

    def joined(self, previous: "View") -> frozenset[NodeId]:
        """Nodes present now but absent from ``previous``."""
        return self.members - previous.members

    def left(self, previous: "View") -> frozenset[NodeId]:
        """Nodes absent now but present in ``previous``."""
        return previous.members - self.members


class GroupMembershipService:
    """Derives per-node views from network connectivity."""

    def __init__(
        self,
        network: SimNetwork,
        weights: Mapping[NodeId, float] | None = None,
        obs: "object | None" = None,
    ) -> None:
        self.network = network
        self.obs = ensure_obs(obs) if obs is not None else network.obs
        self._m_view_changes = self.obs.registry.counter(
            "gms_view_changes_total", "per-node membership view changes"
        )
        self._view_ids = itertools.count(1)
        # Topology changes seen so far: the partition epoch that update
        # records and reconciliation reports are stamped with.
        self.epoch = 0
        self._views: dict[NodeId, View] = {}
        self._listeners: list[ViewListener] = []
        self._weights: dict[NodeId, float] = {
            node: 1.0 for node in network.nodes
        }
        if weights:
            for node, weight in weights.items():
                self.set_weight(node, weight)
        for node in network.nodes:
            self._views[node] = View(
                next(self._view_ids), network.partition_of(node)
            )
        network.on_topology_change(self.refresh)

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    def view_of(self, node: NodeId) -> View:
        """The current view as perceived by ``node``."""
        try:
            return self._views[node]
        except KeyError:
            raise KeyError(f"unknown node {node!r}") from None

    def groups(self) -> list[frozenset[NodeId]]:
        """The distinct partitions live nodes perceive, largest first (a
        crashed node's view is empty and names no group)."""
        distinct = {view.members for view in self._views.values() if view.members}
        return sorted(distinct, key=lambda group: (-len(group), sorted(group)))

    def add_listener(self, listener: ViewListener) -> None:
        """Register a view-change listener ``(node, old, new) -> None``."""
        self._listeners.append(listener)

    def refresh(self) -> list[tuple[NodeId, View, View]]:
        """Recompute all views; notify listeners of changes.

        Returns the list of ``(node, old_view, new_view)`` changes so tests
        can assert on exactly what happened.
        """
        self.epoch += 1
        changes: list[tuple[NodeId, View, View]] = []
        for node in self.network.nodes:
            current = self.network.partition_of(node)
            old = self._views[node]
            if current != old.members:
                new = View(next(self._view_ids), current)
                self._views[node] = new
                changes.append((node, old, new))
        if self.obs.enabled:
            for node, old, new in changes:
                self._m_view_changes.inc(node=node)
                self.obs.emit(
                    "view_change",
                    node=str(node),
                    members=new.members,
                    joined=new.joined(old),
                    left=new.left(old),
                )
        for node, old, new in changes:
            for listener in self._listeners:
                listener(node, old, new)
        return changes

    # ------------------------------------------------------------------
    # partition weights (§5.5.2)
    # ------------------------------------------------------------------
    def set_weight(self, node: NodeId, weight: float) -> None:
        """Assign a weight to a server node (Gifford-style, §5.5.2)."""
        if node not in self.network.nodes:
            raise KeyError(f"unknown node {node!r}")
        if weight <= 0:
            raise ValueError(f"weight must be positive, got {weight}")
        self._weights[node] = float(weight)

    def weight_of(self, nodes: Iterable[NodeId]) -> float:
        """Sum of weights of the given nodes."""
        return sum(self._weights[node] for node in nodes)

    def total_weight(self) -> float:
        """Weight of the whole system."""
        return sum(self._weights.values())

    def partition_weight_fraction(self, node: NodeId) -> float:
        """Weight of ``node``'s partition relative to the whole system.

        This is the value the middleware exposes to the application for
        partition-sensitive constraint validation (§5.5.2).
        """
        view = self.view_of(node)
        if not view.members:
            return 0.0
        return self.weight_of(view.members) / self.total_weight()
