"""Substrate-independent cluster topology bookkeeping.

Both network backends — the deterministic :class:`~repro.net.network.SimNetwork`
and the threaded :class:`~repro.transport.asyncio_backend.AsyncioNetwork` —
share one failure model (§1.1): the topology starts fully connected, links
fail and heal individually or via ``partition``, nodes pause-crash, and
*partitions* are derived from the link state as connected components.  A
crashed node appears as a singleton partition to everyone else, mirroring
the dissertation's observation that node and link failures cannot be
distinguished when they occur.

:class:`Topology` carries exactly that state plus the listener/observability
plumbing; what *delivering a message* means — synchronously charging
simulated latency versus enqueueing a frame onto a real mailbox or socket —
is left to the subclass.  Topology faults (``partition``, ``crash_node``,
``fail_link`` and the scripts built from them) talk only to this interface,
so they mean the same on every backend.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Iterable, Sequence

from ..obs import ensure_obs
from .messages import NodeId


class Topology:
    """Link/crash/partition state shared by every network backend."""

    def __init__(self, nodes: Sequence[NodeId], obs: Any = None) -> None:
        if len(set(nodes)) != len(nodes):
            raise ValueError("duplicate node ids")
        if not nodes:
            raise ValueError("network needs at least one node")
        self.nodes: tuple[NodeId, ...] = tuple(nodes)
        self._failed_links: set[frozenset[NodeId]] = set()
        self._crashed: set[NodeId] = set()
        # Connected component per start node, valid for the current
        # ``_failed_links`` / ``_crashed``.  Lock-free on purpose (it is read
        # on every send): a mutator *replaces* the dict right after changing
        # the link state, and a reader stores only into the dict it picked up
        # before searching — so a search that overlapped a mutation lands in
        # a dict nobody reads any more, never in the current one.
        self._components: dict[NodeId, frozenset[NodeId]] = {}
        self._topology_listeners: list[Callable[[], None]] = []
        # Bumped on every effective failure/heal event.  Invariant probes
        # compare it across a step to know whether reachability *now* still
        # describes reachability at delivery time.
        self.topology_version = 0
        self.obs = ensure_obs(obs)

    # ------------------------------------------------------------------
    # topology control
    # ------------------------------------------------------------------
    def on_topology_change(self, listener: Callable[[], None]) -> None:
        """Register a callback fired after any failure/heal event.

        The sim adapter subscribes here to report reach sets to the GMS.
        """
        self._topology_listeners.append(listener)

    def fail_link(self, a: NodeId, b: NodeId) -> None:
        """Fail the bidirectional link between ``a`` and ``b``.

        A no-op (no listener notification) when the link already failed.
        """
        self._require_node(a)
        self._require_node(b)
        if a == b:
            raise ValueError("a node has no link to itself")
        link = frozenset((a, b))
        if link in self._failed_links:
            return
        self._failed_links.add(link)
        self._components = {}
        self._notify_topology()

    def heal_link(self, a: NodeId, b: NodeId) -> None:
        """Repair the link between ``a`` and ``b``.

        A redundant heal of a healthy link changes nothing and therefore
        notifies nobody — no spurious reports to the GMS.
        """
        link = frozenset((a, b))
        if link not in self._failed_links:
            return
        self._failed_links.discard(link)
        self._components = {}
        self._notify_topology()

    def partition(self, *groups: Iterable[NodeId]) -> None:
        """Split the network into the given groups.

        Every link between nodes of different groups fails; links within a
        group are healed.  Nodes not mentioned form an implicit final group.
        """
        assigned: dict[NodeId, int] = {}
        for index, group in enumerate(groups):
            for node in group:
                self._require_node(node)
                if node in assigned:
                    raise ValueError(f"node {node} listed in two groups")
                assigned[node] = index
        remainder_index = len(groups)
        for node in self.nodes:
            assigned.setdefault(node, remainder_index)
        new_failed = {
            frozenset((a, b))
            for i, a in enumerate(self.nodes)
            for b in self.nodes[i + 1 :]
            if assigned[a] != assigned[b]
        }
        if new_failed == self._failed_links:
            return
        self._failed_links = new_failed
        self._components = {}
        self._notify_topology()

    def heal_all(self) -> None:
        """Repair every link and recover every crashed node.

        Notifies listeners only when there was something to repair.
        """
        if not self._failed_links and not self._crashed:
            return
        self._failed_links.clear()
        self._crashed.clear()
        self._components = {}
        self._notify_topology()

    def crash_node(self, node: NodeId) -> None:
        """Crash ``node`` (pause-crash: state survives, §1.1)."""
        self._require_node(node)
        if node in self._crashed:
            return
        self._crashed.add(node)
        self._components = {}
        self._notify_topology()

    def recover_node(self, node: NodeId) -> None:
        """Recover a previously crashed node (no-op when not crashed)."""
        if node not in self._crashed:
            return
        self._crashed.discard(node)
        self._components = {}
        self._notify_topology()

    def is_crashed(self, node: NodeId) -> bool:
        return node in self._crashed

    # ------------------------------------------------------------------
    # reachability / partitions
    # ------------------------------------------------------------------
    def link_up(self, a: NodeId, b: NodeId) -> bool:
        """Whether the direct link between two live nodes is usable."""
        if a in self._crashed or b in self._crashed:
            return False
        return frozenset((a, b)) not in self._failed_links

    def reachable(self, source: NodeId, destination: NodeId) -> bool:
        """Whether ``destination`` can be reached from ``source``.

        Routing goes through intermediate live nodes, so reachability is
        graph connectivity over the healthy links.
        """
        self._require_node(source)
        self._require_node(destination)
        if source in self._crashed or destination in self._crashed:
            return False
        if source == destination:
            return True
        return destination in self._component_of(source)

    def partitions(self) -> list[frozenset[NodeId]]:
        """Connected components of live nodes, largest first.

        Crashed nodes are excluded entirely — from the outside they are
        indistinguishable from singleton partitions, but they execute
        nothing until recovered.
        """
        remaining = [n for n in self.nodes if n not in self._crashed]
        seen: set[NodeId] = set()
        components: list[frozenset[NodeId]] = []
        for node in remaining:
            if node in seen:
                continue
            component = self._component_of(node)
            seen |= component
            components.append(component)
        components.sort(key=lambda c: (-len(c), sorted(c)))
        return components

    def partition_of(self, node: NodeId) -> frozenset[NodeId]:
        """The set of live nodes in ``node``'s partition."""
        self._require_node(node)
        if node in self._crashed:
            return frozenset()
        return self._component_of(node)

    def is_healthy(self) -> bool:
        """True when no failures are present (one partition, no crashes)."""
        return not self._crashed and len(self.partitions()) == 1

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _component_of(self, start: NodeId) -> frozenset[NodeId]:
        """The component of a live ``start``, searched once per topology."""
        components = self._components
        component = components.get(start)
        if component is None:
            component = components[start] = self._search(start)
        return component

    def _search(self, start: NodeId) -> frozenset[NodeId]:
        component = {start}
        frontier = deque([start])
        while frontier:
            current = frontier.popleft()
            for other in self.nodes:
                if other in component or other in self._crashed:
                    continue
                if self.link_up(current, other):
                    component.add(other)
                    frontier.append(other)
        return frozenset(component)

    def _require_node(self, node: NodeId) -> None:
        if node not in self.nodes:
            raise KeyError(f"unknown node {node!r}")

    def _notify_topology(self) -> None:
        self.topology_version += 1
        if self.obs.enabled:
            self.obs.emit(
                "topology_change",
                partitions=[sorted(p) for p in self.partitions()],
                crashed=sorted(self._crashed),
                failed_links=sorted(sorted(link) for link in self._failed_links),
            )
        for listener in self._topology_listeners:
            listener()
