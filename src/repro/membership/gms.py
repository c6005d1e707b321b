"""Group membership service (GMS).

Detects node and link failures as well as re-joins after recovery or
network reunification (§4.1) from its substrate's reachability reports,
"node X reaches the set S".  Each live node perceives a *view*: the set
of nodes in its partition.  When a node's view changes, registered
listeners are notified with the old and new views — the replication
service uses the "new nodes joined" case to start the reconciliation
phase (Fig. 4.6).

The GMS also supports the weighted-partition mechanism of §5.5.2: nodes can
be assigned weights and any component can ask for the weight fraction of
the current partition relative to the whole system, which
partition-sensitive constraints use to split datasets at runtime.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from ..net import NodeId
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
    """Per-node views; every node starts in one view of all ``nodes``."""

    def __init__(
        self,
        nodes: Iterable[NodeId],
        weights: Mapping[NodeId, float] | None = None,
        obs: "object | None" = None,
    ) -> None:
        self.obs = ensure_obs(obs)
        self._view_ids = itertools.count(1)
        # Reports taken so far: the partition epoch that update records
        # and reconciliation reports are stamped with.
        self.epoch = 0
        self.nodes: tuple[NodeId, ...] = tuple(nodes)
        self._listeners: list[ViewListener] = []
        self._weights: dict[NodeId, float] = dict.fromkeys(self.nodes, 1.0)
        # weight_fraction per member set of the current views; emptied
        # whenever a view, a weight or the node set changes.
        self._fractions: dict[frozenset[NodeId], float] = {}
        if weights:
            for node, weight in weights.items():
                self.set_weight(node, weight)
        everyone = frozenset(self.nodes)
        self._views = {node: View(next(self._view_ids), everyone) for node in self.nodes}

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

    def observe(
        self, reach: Mapping[NodeId, frozenset[NodeId]]
    ) -> list[tuple[NodeId, View, View]]:
        """Take one report, possibly partial: ``node`` reaches ``reach[node]``.

        Bumps :attr:`epoch` once and notifies listeners of each changed
        view; a node first named here joins :attr:`nodes` at weight 1.0
        with an empty view.  Returns the ``(node, old_view, new_view)``
        changes so tests can assert on exactly what happened.
        """
        self.epoch += 1
        for node in sorted(set(itertools.chain(reach, *reach.values())) - self._weights.keys()):
            self.nodes += (node,)
            self._weights[node] = 1.0
            self._views[node] = View(next(self._view_ids), frozenset())
            self._fractions = {}
        changes: list[tuple[NodeId, View, View]] = []
        for node, members in reach.items():
            old = self._views[node]
            if members != old.members:
                new = View(next(self._view_ids), frozenset(members))
                self._views[node] = new
                changes.append((node, old, new))
        if changes:
            self._fractions = {}
        if self.obs.enabled:
            for node, old, new in changes:
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
        if node not in self._weights:
            raise KeyError(f"unknown node {node!r}")
        if weight <= 0:
            raise ValueError(f"weight must be positive, got {weight}")
        self._weights[node] = float(weight)
        self._fractions = {}

    def weight_of(self, nodes: Iterable[NodeId]) -> float:
        """Sum of weights of the given nodes."""
        return sum(self._weights[node] for node in nodes)

    def total_weight(self) -> float:
        """Weight of the whole system."""
        return sum(self._weights.values())

    def weight_fraction(self, members: frozenset[NodeId]) -> float:
        """Weight of a view's ``members`` relative to the whole system."""
        # One read of the memo: a reset racing this call then discards
        # what it stores instead of keeping a stale answer.
        fractions = self._fractions
        fraction = fractions.get(members)
        if fraction is None:
            fraction = self.weight_of(members) / self.total_weight() if members else 0.0
            fractions[members] = fraction
        return fraction
