"""The decide side of the adaptation loop.

:class:`AdaptationEngine` ticks on the simulated scheduler, samples the
cluster through :class:`~repro.adapt.signals.SignalReader`, and drives
each policy through a small fire → (probe?) → release state machine:

* **fire** — all ``when`` conditions met and the cooldown elapsed: the
  action is validated and applied through the actuator (a veto still
  starts the cooldown, so a structurally impossible action cannot be
  retried every tick);
* **probe** — ``probe_window`` after a fire, if any ``rollback_if``
  condition holds the action is undone early (*rollback*);
* **release** — every ``when`` condition cleared (honouring hysteresis):
  the action is undone and the cooldown starts.

Ticks self-reschedule only up to ``start + horizon`` so a drained
scheduler always terminates.  Everything the engine does is recorded in
:attr:`AdaptationEngine.trace`; :meth:`trace_lines` renders it as
canonical JSON so same-seed runs can be compared byte for byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from .actuator import ActionVetoed, AdaptationActuator, AppliedAction
from .policy import AdaptationPolicy
from .signals import SignalReader

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster import DedisysCluster


@dataclass
class _PolicyState:
    policy: AdaptationPolicy
    active: AppliedAction | None = None
    cooldown_until: float = 0.0


class AdaptationEngine:
    """Closes observe → decide → act over one cluster."""

    def __init__(
        self,
        cluster: "DedisysCluster",
        policies: tuple[AdaptationPolicy, ...],
        tick: float = 0.25,
        horizon: float = 10.0,
    ) -> None:
        if tick <= 0:
            raise ValueError("adaptation tick must be positive")
        names = [policy.name for policy in policies]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate policy names: {names}")
        self.cluster = cluster
        self.policies = policies
        self.tick = tick
        self.horizon = horizon
        self.obs = cluster.obs
        self.signals = SignalReader(cluster)
        self.actuator = AdaptationActuator(cluster)
        self._states = {policy.name: _PolicyState(policy) for policy in policies}
        self.ticks = 0
        #: Ordered decision log: dicts with ``t``/``policy``/``phase``/....
        self.trace: list[dict[str, Any]] = []
        registry = self.obs.registry
        self._m_evals = registry.counter(
            "adapt_evals_total", "policy-engine ticks evaluated"
        )
        self._m_firings = registry.counter(
            "adapt_policy_firings_total", "policy firings, by policy and phase"
        )
        self._m_rollbacks = registry.counter(
            "adapt_rollbacks_total", "actions undone after a regressing probe window"
        )
        self._g_backlog = registry.gauge(
            "adapt_threat_backlog", "distinct threat identities pending across stores"
        )

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Pre-schedule every tick on the nominal timeline.

        Synchronous cost charging drifts the sim clock ahead of queued
        event timestamps, so a self-rescheduling loop (``now + tick``)
        would leapfrog the workload.  Like the fault schedule, all ticks
        are laid out up front from the start time — they interleave with
        ops in timestamp order, and the drain still terminates because
        the count is fixed.
        """
        now = self.cluster.clock.now
        count = max(1, int(round(self.horizon / self.tick)))
        for index in range(1, count + 1):
            at = now + index * self.tick
            self.cluster.scheduler.schedule_at(at, self._tick, at, label="adapt:tick")

    def state_of(self, policy_name: str) -> _PolicyState:
        return self._states[policy_name]

    def trace_lines(self) -> list[str]:
        """The decision log as canonical JSON lines (byte-comparable)."""
        return [json.dumps(entry, sort_keys=True) for entry in self.trace]

    # ------------------------------------------------------------------
    def _tick(self, now: float) -> None:
        # ``now`` is the tick's nominal timestamp, not the (drifted)
        # clock — signal durations and cooldowns stay on the op timeline.
        self.ticks += 1
        signals = self.signals.read(now)
        if self.obs.enabled:
            self._m_evals.inc()
            self._g_backlog.set(signals["threat_backlog"])
            self.obs.emit(
                "adapt_eval",
                tick=self.ticks,
                degraded=signals["degraded"],
                threat_backlog=signals["threat_backlog"],
            )
        for policy in self.policies:
            state = self._states[policy.name]
            if state.active is None:
                self._maybe_fire(state, signals, now)
            else:
                self._maybe_release(state, signals, now)

    def _maybe_fire(
        self, state: _PolicyState, signals: dict[str, float], now: float
    ) -> None:
        policy = state.policy
        if now < state.cooldown_until:
            return
        if not all(c.met(signals.get(c.signal, 0.0)) for c in policy.when):
            return
        try:
            applied = self.actuator.apply(policy.action, policy.args, policy=policy.name)
        except ActionVetoed as veto:
            state.cooldown_until = now + policy.cooldown
            self._record(now, policy.name, "veto", policy.action, veto.reason)
            return
        state.active = applied
        if self.obs.enabled:
            self._m_firings.inc(policy=policy.name, phase="fire")
        self._record(now, policy.name, "fire", policy.action, applied.detail)
        if policy.rollback_if:
            probe_at = now + policy.probe_window
            self.cluster.scheduler.schedule_at(
                max(probe_at, self.cluster.clock.now),
                self._probe,
                policy.name,
                applied,
                probe_at,
                label=f"adapt:probe:{policy.name}",
            )

    def _maybe_release(
        self, state: _PolicyState, signals: dict[str, float], now: float
    ) -> None:
        policy = state.policy
        assert state.active is not None
        if not all(c.cleared(signals.get(c.signal, 0.0)) for c in policy.when):
            return
        self.actuator.release(state.active)
        state.active = None
        state.cooldown_until = now + policy.cooldown
        if self.obs.enabled:
            self._m_firings.inc(policy=policy.name, phase="release")
        self._record(now, policy.name, "release", policy.action, "")

    def _probe(self, policy_name: str, applied: AppliedAction, now: float) -> None:
        """Post-action probe: undo if the window shows regression."""
        state = self._states[policy_name]
        if state.active is not applied or applied.undone:
            return  # already released by hysteresis; nothing to judge
        policy = state.policy
        signals = self.signals.read(now)
        regressed = [
            c.signal
            for c in policy.rollback_if
            if c.met(signals.get(c.signal, 0.0))
        ]
        if not regressed:
            self._record(now, policy_name, "probe_ok", policy.action, "")
            return
        self.actuator.release(applied, status="rolled_back")
        state.active = None
        state.cooldown_until = now + policy.cooldown
        if self.obs.enabled:
            self._m_rollbacks.inc(policy=policy_name)
            self.obs.emit(
                "adapt_rollback",
                policy=policy_name,
                action=policy.action,
                regressed=",".join(regressed),
            )
        self._record(now, policy_name, "rollback", policy.action, ",".join(regressed))

    def _record(
        self, now: float, policy: str, phase: str, action: str, detail: str
    ) -> None:
        self.trace.append(
            {
                "t": round(now, 6),
                "policy": policy,
                "phase": phase,
                "action": action,
                "detail": detail,
            }
        )
