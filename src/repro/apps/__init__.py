"""Application scenarios from the dissertation — flight booking, alarm
tracking (ATS), telecom management (DTMS), project management — plus the
auction and bounded-counter domains, all registered in
:mod:`repro.apps.registry` as data-driven
:class:`~repro.apps.registry.Domain` specs."""

from .._lazy import reexport

__getattr__, __dir__, __all__ = reexport(globals(), {
    "registry": ("DOMAINS", "Domain", "domain_names", "get_domain", "register_domain"),
}, submodules=(
    "ats", "auction", "counter", "dtms", "flightbooking", "projectmgmt", "registry",
))
