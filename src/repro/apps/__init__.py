"""Application scenarios from the dissertation — flight booking, alarm
tracking (ATS), telecom management (DTMS), project management — plus the
auction and bounded-counter domains, all registered in
:mod:`repro.apps.registry` as data-driven
:class:`~repro.apps.registry.Domain` specs."""

from . import ats, auction, counter, dtms, flightbooking, projectmgmt, registry
from .registry import DOMAINS, Domain, domain_names, get_domain, register_domain

__all__ = [
    "DOMAINS",
    "Domain",
    "ats",
    "auction",
    "counter",
    "domain_names",
    "dtms",
    "flightbooking",
    "get_domain",
    "projectmgmt",
    "register_domain",
    "registry",
]
