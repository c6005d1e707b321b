"""Per-domain op grammars: what a generated workload may do, as data.

Each domain's grammar is a weighted set of :class:`OpTemplate`\\ s — one
business method with an argument sampler — mirroring BAPCtools'
testdata-generator discipline: workloads are *sampled from a grammar and
validated*, never hand-coded.  The samplers draw only JSON-native values
(ints, floats, strings) so every generated scenario serializes
canonically, and every template's ``(cls, method)`` pair appears in the
domain registry's ``methods`` table, which is what the corpus validator
checks ops against.

Mismatched arguments are sampled *on purpose* at a low rate (a repair
component that does not fit the alarm kind, channel codecs that disagree,
bids under the reserve): in healthy mode those invocations bounce off the
constraint and count as blocked; in degraded mode they become the
consistency threats reconciliation has to clean up — the §3.1 story the
corpus exists to exercise at scale.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Mapping

ArgSampler = Callable[[random.Random, Mapping[str, Any]], tuple[Any, ...]]


@dataclass(frozen=True)
class OpTemplate:
    """One sampleable workload operation of a domain grammar."""

    cls: str
    method: str
    weight: int
    sample_args: ArgSampler
    read: bool = False


def _no_args(rng: random.Random, params: Mapping[str, Any]) -> tuple[Any, ...]:
    return ()


# ----------------------------------------------------------------------
# flight booking
# ----------------------------------------------------------------------
def _sell_args(rng: random.Random, params: Mapping[str, Any]) -> tuple[Any, ...]:
    return (rng.randint(1, 4),)


def _cancel_args(rng: random.Random, params: Mapping[str, Any]) -> tuple[Any, ...]:
    return (rng.randint(1, 2),)


# ----------------------------------------------------------------------
# ATS
# ----------------------------------------------------------------------
_ALARM_KINDS = ("Power", "Radio", "Signal")
_COMPONENTS = (
    "Antenna",
    "Fuse",
    "Power Cable",
    "Power Supply",
    "Signal Cable",
    "Signal Controller",
    "Transceiver",
)


def _alarm_kind_args(rng: random.Random, params: Mapping[str, Any]) -> tuple[Any, ...]:
    return (rng.choice(_ALARM_KINDS),)


def _component_args(rng: random.Random, params: Mapping[str, Any]) -> tuple[Any, ...]:
    return (rng.choice(_COMPONENTS),)


# ----------------------------------------------------------------------
# DTMS
# ----------------------------------------------------------------------
_FREQUENCIES = (118000, 121500, 127100, 132800)
_CODECS = ("g711", "g729")


def _configure_args(rng: random.Random, params: Mapping[str, Any]) -> tuple[Any, ...]:
    return (rng.choice(_FREQUENCIES), rng.choice(_CODECS))


# ----------------------------------------------------------------------
# project management
# ----------------------------------------------------------------------
def _hours_args(rng: random.Random, params: Mapping[str, Any]) -> tuple[Any, ...]:
    return (float(rng.randint(1, 8)),)


def _charge_args(rng: random.Random, params: Mapping[str, Any]) -> tuple[Any, ...]:
    return (float(rng.randint(10, 200)),)


# ----------------------------------------------------------------------
# auctions
# ----------------------------------------------------------------------
def _bid_args(rng: random.Random, params: Mapping[str, Any]) -> tuple[Any, ...]:
    ceiling = int(params.get("reserve_price", 50)) * 3
    return (f"bidder-{rng.randint(1, 20)}", rng.randint(1, max(ceiling, 2)))


# ----------------------------------------------------------------------
# bounded counters
# ----------------------------------------------------------------------
def _counter_value_args(rng: random.Random, params: Mapping[str, Any]) -> tuple[Any, ...]:
    # Wide enough that two writes of one run practically never carry the
    # same value, so a surviving state names the write that produced it.
    return (rng.randint(1, 10**6),)


GRAMMARS: dict[str, tuple[OpTemplate, ...]] = {
    "flight_booking": (
        OpTemplate("Flight", "sell_tickets", 5, _sell_args),
        OpTemplate("Flight", "cancel_tickets", 1, _cancel_args),
        OpTemplate("Flight", "get_sold", 3, _no_args, read=True),
        OpTemplate("Flight", "free_seats", 1, _no_args, read=True),
    ),
    "ats": (
        OpTemplate("Alarm", "set_alarm_kind", 2, _alarm_kind_args),
        OpTemplate("Alarm", "close", 1, _no_args),
        OpTemplate("Alarm", "get_open", 2, _no_args, read=True),
        OpTemplate("RepairReport", "set_affected_component", 4, _component_args),
        OpTemplate("RepairReport", "complete", 1, _no_args),
        OpTemplate("RepairReport", "get_completed", 2, _no_args, read=True),
    ),
    "dtms": (
        OpTemplate("ChannelEndpoint", "configure", 3, _configure_args),
        OpTemplate("ChannelEndpoint", "enable", 2, _no_args),
        OpTemplate("ChannelEndpoint", "disable", 1, _no_args),
        OpTemplate("ChannelEndpoint", "get_frequency", 2, _no_args, read=True),
        OpTemplate("ChannelEndpoint", "get_enabled", 1, _no_args, read=True),
    ),
    "projectmgmt": (
        OpTemplate("StaffMember", "log_hours", 4, _hours_args),
        OpTemplate("StaffMember", "start_week", 1, _no_args),
        OpTemplate("StaffMember", "get_hours_logged", 2, _no_args, read=True),
        OpTemplate("ProjectRecord", "charge", 3, _charge_args),
        OpTemplate("ProjectRecord", "activate", 1, _no_args),
        OpTemplate("ProjectRecord", "get_cost", 2, _no_args, read=True),
    ),
    "auction": (
        OpTemplate("Auction", "place_bid", 5, _bid_args),
        OpTemplate("Auction", "close_auction", 1, _no_args),
        OpTemplate("Auction", "reopen", 1, _no_args),
        OpTemplate("Auction", "current_price", 2, _no_args, read=True),
        OpTemplate("Auction", "get_highest_bid", 1, _no_args, read=True),
    ),
    # Setter and getter only (no ``bump``), 60 % reads: every written
    # value is in the scenario, which is what lets a replay check that
    # committed state survived.
    "counter": (
        OpTemplate("Record", "set_counter", 2, _counter_value_args),
        OpTemplate("Record", "get_counter", 3, _no_args, read=True),
    ),
}


def grammar_for(domain: str) -> tuple[OpTemplate, ...]:
    try:
        return GRAMMARS[domain]
    except KeyError:
        raise KeyError(
            f"no op grammar for domain {domain!r}; known: {sorted(GRAMMARS)}"
        ) from None
