"""The fault injector plugged into a :class:`~repro.net.network.Network`.

One :class:`FaultInjector` owns the per-link fault models and their RNGs.
Install it with :meth:`Network.install_fault_injector` — on any backend;
from then on every point-to-point ``send`` consults the injector after
the binary reachability checks (``Network._admit``): the injector may
drop the message (surfaced as ``UnreachableError``, like the built-in
uniform loss), add latency, or duplicate the delivery.

Determinism: each directed link draws from its own
``random.Random(f"{seed}:{source}->{destination}")``.  String seeding
hashes via SHA-512, so the stream is stable across interpreter runs and
independent of the order in which links first see traffic.

Scope: the injector models *link*-level faults, so it applies to
point-to-point sends only.  Group multicast (:class:`GroupChannel` and
its per-backend subclasses) bypasses it — the Spread-style toolkit it
models provides reliable delivery within the reachable membership.
"""

from __future__ import annotations

import random
from typing import Any, Callable

from ..net.messages import NodeId
from ..obs import ensure_obs
from .models import PASS, FaultDecision, GilbertElliottLoss, LinkFaultModel

LinkKey = tuple[NodeId, NodeId]


class FaultInjector:
    """Per-link fault models with deterministic, per-link randomness."""

    def __init__(self, seed: int = 0, obs: Any = None) -> None:
        self.seed = seed
        self.enabled = True
        self._models: dict[LinkKey, LinkFaultModel] = {}
        self._default_factory: Callable[[], LinkFaultModel] | None = None
        self._rngs: dict[LinkKey, random.Random] = {}
        self.bind_obs(obs)

    @classmethod
    def burst_loss(cls, loss: float, seed: int = 0) -> "FaultInjector":
        """Every link loses ``loss`` of its traffic in Gilbert–Elliott bursts.

        ``p_good_to_bad`` is tuned so the steady-state loss matches the
        requested rate at ``loss_bad=0.6``, ``p_bad_to_good=0.25`` — which
        has a solution only below one half.
        """
        if not 0.0 < loss < 0.5:
            raise ValueError(f"burst loss must be within (0, 0.5), got {loss}")
        injector = cls(seed=seed)
        injector.set_default_model(
            lambda: GilbertElliottLoss(
                p_good_to_bad=0.25 * loss / (0.6 - loss),
                p_bad_to_good=0.25,
                loss_good=0.0,
                loss_bad=0.6,
            )
        )
        return injector

    # ------------------------------------------------------------------
    # configuration
    # ------------------------------------------------------------------
    def set_link_model(
        self,
        source: NodeId,
        destination: NodeId,
        model: LinkFaultModel,
        bidirectional: bool = True,
    ) -> None:
        """Attach ``model`` to the ``source -> destination`` link.

        With ``bidirectional`` (the default) the reverse direction shares
        the *same* model instance, so burst periods affect both directions
        — the behaviour of a congested physical link.  Pass
        ``bidirectional=False`` and install two instances for independent
        per-direction chains.
        """
        if source == destination:
            raise ValueError("a node has no link to itself")
        self._models[(source, destination)] = model
        if bidirectional:
            self._models[(destination, source)] = model

    def set_default_model(self, factory: Callable[[], LinkFaultModel]) -> None:
        """Use ``factory()`` to create a model for any unconfigured link.

        Each directed link gets its own instance (created lazily on first
        traffic), so per-link chain state stays independent.
        """
        self._default_factory = factory

    def clear(self) -> None:
        """Remove all models and per-link RNG state."""
        self._models.clear()
        self._rngs.clear()
        self._default_factory = None

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def bind_obs(self, obs: Any) -> None:
        """Attach an observability hub (done by the network on install)."""
        self.obs = ensure_obs(obs)

    # ------------------------------------------------------------------
    # the hook Network._admit calls
    # ------------------------------------------------------------------
    def on_send(
        self, source: NodeId, destination: NodeId, kind: str, payload: Any
    ) -> FaultDecision:
        """Decide the fate of one message about to cross a link."""
        if not self.enabled:
            return PASS
        model = self._models.get((source, destination))
        if model is None:
            if self._default_factory is None or source == destination:
                return PASS
            model = self._default_factory()
            self._models[(source, destination)] = model
        decision = model.decide(
            self._rng_for(source, destination), source, destination, kind, payload
        )
        if decision is PASS or (
            not decision.drop and decision.extra_delay == 0.0 and decision.duplicates == 0
        ):
            return PASS
        if self.obs.enabled:
            effect = (
                "drop"
                if decision.drop
                else ("duplicate" if decision.duplicates else "delay")
            )
            self.obs.emit(
                "fault_injected",
                node=str(source),
                destination=destination,
                kind=kind,
                effect=effect,
                reason=decision.reason,
                extra_delay=decision.extra_delay,
                duplicates=decision.duplicates,
            )
        return decision

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _rng_for(self, source: NodeId, destination: NodeId) -> random.Random:
        key = (source, destination)
        rng = self._rngs.get(key)
        if rng is None:
            rng = random.Random(f"{self.seed}:{source}->{destination}")
            self._rngs[key] = rng
        return rng
