"""Heartbeat-based failure detection.

The GMS of the prototype sits on a group-communication toolkit whose
failure detector needs *time* to suspect a crashed or disconnected node —
failures are not known instantaneously.  While
:class:`~repro.membership.gms.GroupMembershipService` learns of a
topology change at once (sufficient for the Chapter-5 experiments, which
inject failures explicitly), this detector models the detection process
itself: every node multicasts heartbeats on a period to what it reaches;
a node that missed ``timeout`` worth of heartbeats becomes *suspected*.

Because node and link failures cannot be differentiated when they occur
(§1.1, [FLP85]), a suspicion says only "unreachable" — whether the node
crashed or the link failed becomes known when it is reachable again.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable

from ..net import NodeId, SimNetwork
from ..obs import ensure_obs
from ..sim import Scheduler
from .sim_adapter import reach_sets

SuspicionListener = Callable[[NodeId, NodeId, bool], None]
"""Callback ``(observer, subject, suspected)``."""

#: Suspicion events :attr:`HeartbeatFailureDetector.events` keeps.
EVENT_TAIL = 32


@dataclass(frozen=True)
class SuspicionEvent:
    observer: NodeId
    subject: NodeId
    suspected: bool
    timestamp: float
    # Snapshot of the observer's last-heartbeat-received time for the
    # subject at the moment the event fired.  ``detection_latency`` must
    # use this snapshot: the live ``_last_seen`` entry is refreshed once
    # the subject heals, which would corrupt (even negate) latencies
    # computed after recovery.
    last_seen: float = 0.0


class HeartbeatFailureDetector:
    """Periodic heartbeats with timeout-based suspicion, per observer."""

    def __init__(
        self,
        network: SimNetwork,
        scheduler: Scheduler | None = None,
        period: float = 0.5,
        timeout: float = 1.6,
        obs: "object | None" = None,
    ) -> None:
        if period <= 0 or timeout <= period:
            raise ValueError("need 0 < period < timeout")
        self.network = network
        self.obs = ensure_obs(obs) if obs is not None else network.obs
        self.scheduler = scheduler if scheduler is not None else network.scheduler
        self.period = period
        self.timeout = timeout
        # observer -> subject -> last heartbeat receive time
        self._last_seen: dict[NodeId, dict[NodeId, float]] = {
            node: {
                other: self.scheduler.clock.now
                for other in network.nodes
                if other != node
            }
            for node in network.nodes
        }
        self._suspected: dict[NodeId, set[NodeId]] = {node: set() for node in network.nodes}
        self._listeners: list[SuspicionListener] = []
        # Every event is counted; the last few are kept, and the last
        # raised suspicion per (observer, subject) for detection_latency.
        self.recorded = 0
        self.events: deque[SuspicionEvent] = deque(maxlen=EVENT_TAIL)
        self._last_raised: dict[tuple[NodeId, NodeId], SuspicionEvent] = {}
        self._running = False

    # ------------------------------------------------------------------
    def add_listener(self, listener: SuspicionListener) -> None:
        self._listeners.append(listener)

    def suspects(self, observer: NodeId) -> frozenset[NodeId]:
        """The nodes ``observer`` currently suspects."""
        return frozenset(self._suspected[observer])

    def is_suspected(self, observer: NodeId, subject: NodeId) -> bool:
        return subject in self._suspected[observer]

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Schedule the first heartbeat round."""
        if self._running:
            return
        self._running = True
        self.scheduler.schedule_after(self.period, self._round, label="heartbeat")

    def stop(self) -> None:
        self._running = False

    def run_for(self, seconds: float) -> None:
        """Convenience: start and advance the simulation by ``seconds``."""
        self.start()
        self.scheduler.run_until(self.scheduler.clock.now + seconds)

    # ------------------------------------------------------------------
    def _round(self) -> None:
        if not self._running:
            return
        now = self.scheduler.clock.now
        reach = reach_sets(self.network)
        # Heartbeat exchange: every other node a sender reaches hears it;
        # a crashed node reaches nothing, so it neither sends nor hears.
        for sender, receivers in reach.items():
            for receiver in receivers:
                if receiver != sender:
                    self._last_seen[receiver][sender] = now
        # Suspicion evaluation; a crashed observer evaluates nothing.
        for observer, reached in reach.items():
            if not reached:
                continue
            for subject, seen in self._last_seen[observer].items():
                overdue = (now - seen) > self.timeout
                currently = subject in self._suspected[observer]
                if overdue and not currently:
                    self._suspected[observer].add(subject)
                    self._emit(observer, subject, True, now)
                elif not overdue and currently:
                    self._suspected[observer].discard(subject)
                    self._emit(observer, subject, False, now)
        self.scheduler.schedule_after(self.period, self._round, label="heartbeat")

    def _emit(self, observer: NodeId, subject: NodeId, suspected: bool, now: float) -> None:
        event = SuspicionEvent(
            observer,
            subject,
            suspected,
            now,
            last_seen=self._last_seen[observer][subject],
        )
        self.recorded += 1
        self.events.append(event)
        if suspected:
            self._last_raised[observer, subject] = event
        if self.obs.enabled:
            self.obs.emit(
                "suspicion",
                node=str(observer),
                subject=subject,
                suspected=suspected,
            )
        for listener in self._listeners:
            listener(observer, subject, suspected)

    def detection_latency(self, observer: NodeId, subject: NodeId) -> float | None:
        """Time from the most recent suspicion of ``subject`` back to the
        last heartbeat received from it (None if never suspected).

        Uses the last-seen time snapshotted in the suspicion event itself,
        so the value stays correct after the subject heals and heartbeats
        refresh the live bookkeeping.
        """
        event = self._last_raised.get((observer, subject))
        if event is None:
            return None
        return event.timestamp - event.last_seen
