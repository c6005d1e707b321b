"""Distributed telecommunication management system (DTMS) — §1.4, [SG03].

The DTMS manages voice communication systems (VCS) installed at different
sites.  Each site runs its own DTMS instance; the hardware facilities of a
VCS are represented by objects *bound to their site* (strong ownership), so
a site failure stays local.  Configuring a voice channel between two sites
requires the channel endpoints' parameters to be mutually consistent — an
integrity constraint spanning objects of multiple sites, which is exactly
what breaks under a network split between the sites.
"""

from __future__ import annotations

from ..core import (
    Constraint,
    ConstraintPriority,
    ConstraintScope,
    ConstraintType,
    ConstraintValidationContext,
    SatisfactionDegree,
)
from ..core.metadata import AffectedMethod, ConstraintRegistration
from ..objects import Entity


class Site(Entity):
    """One DTMS site hosting VCS hardware."""

    fields = {"name": "", "region": ""}


class ChannelEndpoint(Entity):
    """One end of a voice communication channel.

    ``peer`` references the endpoint at the other site; ``frequency`` and
    ``codec`` must match the peer's for the channel to work.
    """

    fields = {
        "channel_id": "",
        "site": None,       # ObjectRef to the owning Site
        "peer": None,       # ObjectRef to the peer ChannelEndpoint
        "frequency": 0,
        "codec": "",
        "enabled": False,
    }

    def configure(self, frequency: int, codec: str) -> None:
        """Set both channel parameters in one business operation."""
        self._set("frequency", frequency)
        self._set("codec", codec)

    def enable(self) -> None:
        self._set("enabled", True)

    def disable(self) -> None:
        self._set("enabled", False)


class ChannelConfigConsistency(Constraint):
    """Both endpoints of an enabled channel must agree on parameters.

    This constraint spans objects owned by different sites; during a
    partition between the sites the peer endpoint is only available as a
    possibly-stale backup replica, producing consistency threats.
    """

    name = "ChannelConfigConsistency"
    constraint_type = ConstraintType.INVARIANT_HARD
    priority = ConstraintPriority.RELAXABLE
    scope = ConstraintScope.INTER_OBJECT
    context_class = "ChannelEndpoint"
    min_satisfaction_degree = SatisfactionDegree.POSSIBLY_SATISFIED
    description = "channel endpoints agree on frequency and codec"

    def validate(self, ctx: ConstraintValidationContext) -> bool:
        endpoint = ctx.get_context_object()
        peer = endpoint.resolve(endpoint.get_peer())
        if peer is None:
            return True  # unpaired endpoint constrains nothing
        if not endpoint.get_enabled() and not peer.get_enabled():
            return True  # disabled channels may be reconfigured freely
        return (
            endpoint.get_frequency() == peer.get_frequency()
            and endpoint.get_codec() == peer.get_codec()
        )


class SiteOwnershipConstraint(Constraint):
    """Every channel endpoint must be bound to a site (non-tradeable).

    Critical for decentralized management: an unowned hardware object
    cannot be administered after failures, so this constraint must never be
    traded for availability.
    """

    name = "SiteOwnershipConstraint"
    constraint_type = ConstraintType.INVARIANT_HARD
    priority = ConstraintPriority.CRITICAL
    scope = ConstraintScope.INTRA_OBJECT
    context_class = "ChannelEndpoint"
    description = "channel endpoint bound to a site"

    def validate(self, ctx: ConstraintValidationContext) -> bool:
        endpoint = ctx.get_context_object()
        return endpoint.get_site() is not None


DTMS_AFFECTED_METHODS = (
    AffectedMethod("ChannelEndpoint", "configure"),
    AffectedMethod("ChannelEndpoint", "set_frequency"),
    AffectedMethod("ChannelEndpoint", "set_codec"),
    AffectedMethod("ChannelEndpoint", "enable"),
)


def dtms_constraint_registrations() -> list[ConstraintRegistration]:
    return [
        ConstraintRegistration(ChannelConfigConsistency(), DTMS_AFFECTED_METHODS),
        ConstraintRegistration(
            SiteOwnershipConstraint(),
            (
                AffectedMethod("ChannelEndpoint", "set_site"),
                AffectedMethod("ChannelEndpoint", "enable"),
            ),
        ),
    ]
