"""The major system states of Fig. 1.4.

Each node locally perceives one of three states: **healthy** (no failures
or inconsistencies present), **degraded** (node/link failures present,
inconsistencies potentially introduced), and **reconciliation** (failures
repaired, inconsistencies being cleaned up).  The tracker derives the
healthy/degraded part from group-membership view changes and is told by
the reconciliation manager when the reconciliation phase runs; listeners
and a timestamped history make mode changes observable — e.g. for
operator dashboards or for the §3.3 rule that business operations on
still-threatened objects behave differently while reconciliation is
underway.  The history counts every transition and keeps the last
:data:`HISTORY_TAIL`, so a long run of partition cycles does not grow it.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import Callable

from ..membership import GroupMembershipService, View
from ..net import NodeId
from ..sim import SimClock

#: Mode changes :meth:`SystemModeTracker.history` keeps, newest last.
HISTORY_TAIL = 32


class SystemMode(enum.Enum):
    HEALTHY = "healthy"
    DEGRADED = "degraded"
    RECONCILIATION = "reconciliation"


@dataclass(frozen=True)
class ModeChange:
    """One recorded transition of a node's perceived mode."""

    node: NodeId
    previous: SystemMode
    current: SystemMode
    timestamp: float


ModeListener = Callable[[ModeChange], None]


class SystemModeTracker:
    """Tracks the Fig. 1.4 state machine per node."""

    def __init__(self, gms: GroupMembershipService, clock: SimClock) -> None:
        self.gms = gms
        self.clock = clock
        self._modes: dict[NodeId, SystemMode] = {}
        # Transitions ever made; the retained ones are the last few.
        self.transitions = 0
        self._history: deque[ModeChange] = deque(maxlen=HISTORY_TAIL)
        self._listeners: list[ModeListener] = []
        for node in gms.nodes:
            full = len(gms.view_of(node)) == len(gms.nodes)
            self._modes[node] = SystemMode.HEALTHY if full else SystemMode.DEGRADED
        gms.add_listener(self._on_view_change)

    # ------------------------------------------------------------------
    def mode_of(self, node: NodeId) -> SystemMode:
        if node not in self._modes:
            raise KeyError(f"unknown node {node!r}")
        return self._modes[node]

    def history(self, node: NodeId | None = None) -> list[ModeChange]:
        """The retained mode changes, oldest first (``node``'s only, if
        given)."""
        if node is None:
            return list(self._history)
        return [change for change in self._history if change.node == node]

    def add_listener(self, listener: ModeListener) -> None:
        self._listeners.append(listener)

    # ------------------------------------------------------------------
    # transitions
    # ------------------------------------------------------------------
    def _on_view_change(self, node: NodeId, old: View, new: View) -> None:
        if len(new) < len(self.gms.nodes):
            # Node/link failures present (or this node crashed): degraded.
            self._transition(node, SystemMode.DEGRADED)
        elif self._modes[node] is SystemMode.DEGRADED:
            # Failures repaired; inconsistencies must be cleaned up before
            # the node counts as healthy again (Fig. 1.4 puts the
            # reconciliation phase between degraded and healthy).
            self._transition(node, SystemMode.RECONCILIATION)

    def begin_reconciliation(self, nodes: frozenset[NodeId]) -> None:
        """The reconciliation manager started cleaning up."""
        for node in nodes:
            if self._modes.get(node) is not SystemMode.HEALTHY:
                self._transition(node, SystemMode.RECONCILIATION)

    def finish_reconciliation(self, nodes: frozenset[NodeId], clean: bool) -> None:
        """Reconciliation finished for ``nodes``.

        ``clean`` is True when no threats were postponed or deferred: the
        nodes return to healthy.  Otherwise they remain in the
        reconciliation state (deferred clean-up is still the application's
        responsibility, §4.4) unless new failures put them back into
        degraded mode.
        """
        for node in nodes:
            if len(self.gms.view_of(node)) < len(self.gms.nodes):
                self._transition(node, SystemMode.DEGRADED)
            elif clean:
                self._transition(node, SystemMode.HEALTHY)

    def _transition(self, node: NodeId, target: SystemMode) -> None:
        previous = self._modes[node]
        if previous is target:
            return
        self._modes[node] = target
        change = ModeChange(node, previous, target, self.clock.now)
        self.transitions += 1
        self._history.append(change)
        for listener in self._listeners:
            listener(change)
