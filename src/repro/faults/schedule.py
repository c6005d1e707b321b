"""Scheduled fault scripts replayed on the simulation scheduler.

A :class:`FaultSchedule` is a timestamped list of topology actions —
``fail_link``, ``heal_link``, ``crash_node``, ``recover_node``,
``partition``, ``heal_all`` — that :meth:`install` registers on the sim
:class:`~repro.sim.scheduler.Scheduler`.  As the simulated clock advances
(driven by workload, a drain, or explicit ``run_until``
calls) the faults fire at their scripted times, which lets experiments
interleave failures with business traffic deterministically — the
Chapter-5 scenarios as *data* instead of imperative test code.

A schedule is built from plain ``(at, action, args)`` tuples
(:meth:`from_events`), the form a scenario stores its fault script in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from ..net.network import SimNetwork
    from ..sim.scheduler import Event

# action name -> argument arity (None = variadic, for partition groups).
ACTIONS: dict[str, int | None] = {
    "fail_link": 2,
    "heal_link": 2,
    "crash_node": 1,
    "recover_node": 1,
    "partition": None,
    "heal_all": 0,
}


@dataclass(frozen=True)
class FaultEvent:
    """One scripted topology action at an absolute simulated time."""

    at: float
    action: str
    args: tuple[Any, ...] = ()

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise ValueError(
                f"unknown fault action {self.action!r}; choose from {sorted(ACTIONS)}"
            )
        arity = ACTIONS[self.action]
        if arity is not None and len(self.args) != arity:
            raise ValueError(
                f"{self.action} takes {arity} argument(s), got {len(self.args)}"
            )
        if self.at < 0:
            raise ValueError("fault event time must be non-negative")

    def apply(self, network: "SimNetwork") -> None:
        """Execute the action against ``network``."""
        getattr(network, self.action)(*self.args)


class FaultSchedule:
    """An ordered fault script bound to no particular network."""

    def __init__(self, events: Iterable[FaultEvent] = ()) -> None:
        self.events: list[FaultEvent] = sorted(events, key=lambda e: e.at)
        self._installed: list["Event"] = []

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    # ------------------------------------------------------------------
    # building
    # ------------------------------------------------------------------
    def add(self, at: float, action: str, *args: Any) -> "FaultSchedule":
        """Append one event (kept sorted); returns self for chaining."""
        event = FaultEvent(at, action, tuple(args))
        self.events.append(event)
        self.events.sort(key=lambda e: e.at)
        return self

    def fail_link(self, at: float, a: str, b: str) -> "FaultSchedule":
        return self.add(at, "fail_link", a, b)

    def heal_link(self, at: float, a: str, b: str) -> "FaultSchedule":
        return self.add(at, "heal_link", a, b)

    def crash_node(self, at: float, node: str) -> "FaultSchedule":
        return self.add(at, "crash_node", node)

    def recover_node(self, at: float, node: str) -> "FaultSchedule":
        return self.add(at, "recover_node", node)

    def partition(self, at: float, *groups: Sequence[str]) -> "FaultSchedule":
        return self.add(at, "partition", *(tuple(sorted(group)) for group in groups))

    def heal_all(self, at: float) -> "FaultSchedule":
        return self.add(at, "heal_all")

    @classmethod
    def from_events(
        cls, events: Iterable[tuple[float, str, Sequence[Any]]]
    ) -> "FaultSchedule":
        return cls(FaultEvent(at, action, tuple(args)) for at, action, args in events)

    # ------------------------------------------------------------------
    # replay
    # ------------------------------------------------------------------
    def install(self, network: "SimNetwork") -> list["Event"]:
        """Register every event on the network's scheduler.

        Events strictly in the past are rejected (the scheduler cannot
        rewind).  Returns the scheduler events so callers may cancel
        individual faults.
        """
        scheduler = network.scheduler
        now = scheduler.clock.now
        for event in self.events:
            if event.at < now:
                raise ValueError(
                    f"fault event at {event.at} lies in the past (now={now})"
                )
        installed = [
            scheduler.schedule_at(
                event.at,
                self._fire,
                network,
                event,
                label=f"fault:{event.action}",
            )
            for event in self.events
        ]
        self._installed.extend(installed)
        return installed

    def cancel(self) -> int:
        """Cancel every still-pending installed event; returns the count."""
        cancelled = 0
        for event in self._installed:
            if not event.cancelled:
                event.cancel()
                cancelled += 1
        self._installed.clear()
        return cancelled

    @staticmethod
    def _fire(network: "SimNetwork", event: FaultEvent) -> None:
        """Apply one installed event, traced."""
        if network.obs.enabled:
            network.obs.emit(
                "fault_event",
                action=event.action,
                args=[list(arg) if isinstance(arg, (tuple, set, frozenset)) else arg
                      for arg in event.args],
                at=event.at,
            )
        event.apply(network)
