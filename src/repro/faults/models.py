"""Per-link fault models consulted on every network's point-to-point ``send``.

The dissertation's failure model (§1.1) injects clean, binary failures:
links fail, nodes crash, partitions split.  Real deployments additionally
see *partial* failures — bursty packet loss, transient congestion delay,
duplicated deliveries — and a fault-tolerance mechanism must be exercised
under those, too, to validate its adaptivity (Stoicescu et al.; De Florio
& Deconinck, PAPERS.md).  This module provides the fault vocabulary:

* :class:`GilbertElliottLoss` — the classic seeded two-state burst-loss
  chain (good/bad states with per-state loss rates);
* :class:`ExtraDelay` — additional per-message latency with optional
  jitter;
* :class:`Duplicate` — probabilistic message duplication;
* :class:`DropKinds` — drop filter for selected message kinds;
* :class:`CompositeFault` — chain several models on one link.

Models are *stateful per link* (the Gilbert–Elliott chain advances once
per message) and draw all randomness from the RNG the
:class:`~repro.faults.injector.FaultInjector` hands them, which is
deterministically derived from the injector seed and the link — so a run
is a pure function of the scenario and its seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from ..net.messages import NodeId


@dataclass(frozen=True)
class FaultDecision:
    """What happens to one message crossing a faulty link."""

    drop: bool = False
    reason: str = ""
    extra_delay: float = 0.0
    duplicates: int = 0

    def merge(self, other: "FaultDecision") -> "FaultDecision":
        """Combine two decisions: drops win, delays add, duplicates max."""
        if self.drop:
            return self
        if other.drop:
            return other
        if other.extra_delay == 0.0 and other.duplicates == 0:
            return self
        return FaultDecision(
            drop=False,
            reason="",
            extra_delay=self.extra_delay + other.extra_delay,
            duplicates=max(self.duplicates, other.duplicates),
        )


#: The no-fault decision shared by every clean path.
PASS = FaultDecision()


def _require_probability(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be within [0, 1], got {value}")


class LinkFaultModel:
    """Base class for per-link fault models.

    Subclasses override :meth:`decide`; they must draw randomness only
    from the supplied ``rng`` and may keep per-link state (one model
    instance serves exactly one directed link).
    """

    name = "fault"

    def decide(
        self,
        rng: random.Random,
        source: NodeId,
        destination: NodeId,
        kind: str,
        payload: Any,
    ) -> FaultDecision:
        return PASS

    def reset(self) -> None:
        """Return the model to its initial state."""


class GilbertElliottLoss(LinkFaultModel):
    """Two-state Markov burst-loss model (Gilbert–Elliott).

    The chain sits in a *good* or *bad* state; every message first
    advances the chain (``p_good_to_bad`` / ``p_bad_to_good``), then is
    lost with the state's loss rate.  The defaults model rare but heavy
    loss bursts; :meth:`steady_state_loss` gives the long-run loss rate
    for calibrating scenarios (e.g. "1% burst loss").
    """

    name = "gilbert-elliott"

    def __init__(
        self,
        p_good_to_bad: float = 0.01,
        p_bad_to_good: float = 0.25,
        loss_good: float = 0.0,
        loss_bad: float = 0.6,
    ) -> None:
        _require_probability("p_good_to_bad", p_good_to_bad)
        _require_probability("p_bad_to_good", p_bad_to_good)
        _require_probability("loss_good", loss_good)
        _require_probability("loss_bad", loss_bad)
        if p_bad_to_good == 0.0 and p_good_to_bad > 0.0 and loss_bad >= 1.0:
            raise ValueError("an absorbing bad state with certain loss kills the link")
        self.p_good_to_bad = p_good_to_bad
        self.p_bad_to_good = p_bad_to_good
        self.loss_good = loss_good
        self.loss_bad = loss_bad
        self.bad = False

    def steady_state_loss(self) -> float:
        """Long-run fraction of messages lost."""
        total = self.p_good_to_bad + self.p_bad_to_good
        if total == 0.0:
            return self.loss_bad if self.bad else self.loss_good
        bad_fraction = self.p_good_to_bad / total
        return bad_fraction * self.loss_bad + (1.0 - bad_fraction) * self.loss_good

    def decide(
        self,
        rng: random.Random,
        source: NodeId,
        destination: NodeId,
        kind: str,
        payload: Any,
    ) -> FaultDecision:
        if self.bad:
            if rng.random() < self.p_bad_to_good:
                self.bad = False
        elif rng.random() < self.p_good_to_bad:
            self.bad = True
        loss = self.loss_bad if self.bad else self.loss_good
        if loss and rng.random() < loss:
            return FaultDecision(drop=True, reason="burst-loss")
        return PASS

    def reset(self) -> None:
        self.bad = False


class ExtraDelay(LinkFaultModel):
    """Adds latency to every message: ``delay`` plus uniform jitter."""

    name = "extra-delay"

    def __init__(self, delay: float, jitter: float = 0.0) -> None:
        if delay < 0 or jitter < 0:
            raise ValueError("delay and jitter must be non-negative")
        self.delay = delay
        self.jitter = jitter

    def decide(
        self,
        rng: random.Random,
        source: NodeId,
        destination: NodeId,
        kind: str,
        payload: Any,
    ) -> FaultDecision:
        extra = self.delay + (rng.random() * self.jitter if self.jitter else 0.0)
        if extra <= 0.0:
            return PASS
        return FaultDecision(extra_delay=extra)


class Duplicate(LinkFaultModel):
    """Delivers ``copies`` extra copies of a message with a probability."""

    name = "duplicate"

    def __init__(self, probability: float, copies: int = 1) -> None:
        _require_probability("probability", probability)
        if copies < 1:
            raise ValueError("copies must be at least 1")
        self.probability = probability
        self.copies = copies

    def decide(
        self,
        rng: random.Random,
        source: NodeId,
        destination: NodeId,
        kind: str,
        payload: Any,
    ) -> FaultDecision:
        if self.probability and rng.random() < self.probability:
            return FaultDecision(duplicates=self.copies)
        return PASS


class DropKinds(LinkFaultModel):
    """Drops messages of selected kinds (optionally probabilistically).

    Useful for targeted experiments: e.g. drop every ``invocation`` while
    letting replica traffic through, or starve a specific protocol.
    """

    name = "drop-kinds"

    def __init__(self, kinds: Iterable[str], probability: float = 1.0) -> None:
        _require_probability("probability", probability)
        self.kinds = frozenset(kinds)
        if not self.kinds:
            raise ValueError("need at least one message kind to drop")
        self.probability = probability

    def decide(
        self,
        rng: random.Random,
        source: NodeId,
        destination: NodeId,
        kind: str,
        payload: Any,
    ) -> FaultDecision:
        if kind not in self.kinds:
            return PASS
        if self.probability >= 1.0 or rng.random() < self.probability:
            return FaultDecision(drop=True, reason=f"kind-filter:{kind}")
        return PASS


class CompositeFault(LinkFaultModel):
    """Chains several models on one link, in order.

    Every model is consulted for every message (so each advances its own
    state deterministically); the decisions merge — any drop wins, delays
    add up, duplicate counts take the maximum.
    """

    name = "composite"

    def __init__(self, models: Sequence[LinkFaultModel]) -> None:
        if not models:
            raise ValueError("composite fault needs at least one model")
        self.models = list(models)

    def decide(
        self,
        rng: random.Random,
        source: NodeId,
        destination: NodeId,
        kind: str,
        payload: Any,
    ) -> FaultDecision:
        decision = PASS
        for model in self.models:
            decision = decision.merge(
                model.decide(rng, source, destination, kind, payload)
            )
        return decision

    def reset(self) -> None:
        for model in self.models:
            model.reset()
