"""Domain registry: every application domain as deployable, data-driven spec.

A :class:`Domain` bundles what a scenario needs to rebuild a world for one
application — which entity classes to deploy, which constraints to
register, how to create the ``i``-th *entity group* (one flight; one
alarm/repair-report pair; one wired channel; one staffed project; one
auction lot), and which reconciliation handler cleans up constraint
violations after a heal.  :meth:`~repro.check.scenario.Scenario.build`
dispatches through this table, so the model checker, the chaos replayer,
and the corpus generator all speak the same six (and counting) domains
instead of hard-coding flight booking.

Entity groups keep ``Op.ref_index`` meaningful across domains: the refs
tuple a build returns is laid out group by group in :attr:`Domain.layout`
order, so ``ref_index % len(layout)`` names the entity class an op
targets — the corpus validator leans on that to reject unknown ops.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Mapping

from .ats import Alarm, RepairReport, ats_constraint_registration
from .auction import Auction, auction_constraint_registrations
from .counter import Record, counter_constraint_registration
from .dtms import ChannelEndpoint, Site, dtms_constraint_registrations
from .flightbooking import (
    Flight,
    RebookingReconciliationHandler,
    ticket_constraint_registration,
)
from .projectmgmt import (
    ProjectRecord,
    StaffMember,
    projectmgmt_constraint_registrations,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster import DedisysCluster
    from ..objects import ObjectRef


@dataclass(frozen=True)
class Domain:
    """One application domain, as data.

    ``layout`` is the entity-class cycle of one group; ``methods`` maps
    each class to the business methods a generated op may invoke (the
    grammar *and* the validator key off it); ``deploy`` installs classes
    and constraints; ``create_group`` creates group ``index`` and returns
    its refs in ``layout`` order.
    """

    name: str
    layout: tuple[str, ...]
    methods: Mapping[str, tuple[str, ...]]
    deploy: Callable[["DedisysCluster", Mapping[str, Any]], None]
    create_group: Callable[
        ["DedisysCluster", tuple[str, ...], int, Mapping[str, Any]],
        tuple["ObjectRef", ...],
    ]
    reconcile_handler: Callable[["DedisysCluster"], Any] | None = None

    def ref_class(self, ref_index: int) -> str:
        """The entity class the ``ref_index``-th ref belongs to."""
        return self.layout[ref_index % len(self.layout)]

    def create_entities(
        self,
        cluster: "DedisysCluster",
        node_ids: tuple[str, ...],
        groups: int,
        params: Mapping[str, Any],
    ) -> tuple["ObjectRef", ...]:
        refs: list["ObjectRef"] = []
        for index in range(groups):
            refs.extend(self.create_group(cluster, node_ids, index, params))
        return tuple(refs)


def _node_for(node_ids: tuple[str, ...], slot: int) -> str:
    return node_ids[slot % len(node_ids)]


# ----------------------------------------------------------------------
# flight booking (§1.3) — layout preserved bit-for-bit from the original
# Scenario.build so the golden single-partition trace stays byte-stable.
# ----------------------------------------------------------------------
def _flight_deploy(cluster: "DedisysCluster", params: Mapping[str, Any]) -> None:
    cluster.deploy(Flight)
    cluster.register_constraint(
        ticket_constraint_registration(
            partition_sensitive=bool(params.get("partition_sensitive", False))
        )
    )


def _flight_group(
    cluster: "DedisysCluster",
    node_ids: tuple[str, ...],
    index: int,
    params: Mapping[str, Any],
) -> tuple["ObjectRef", ...]:
    seats = int(params.get("seats", 100))
    ref = cluster.create_entity(
        _node_for(node_ids, index),
        "Flight",
        f"F{index}",
        {"flight_number": f"F{index}", "seats": seats, "sold": 0},
    )
    return (ref,)


def _flight_reconcile_handler(cluster: "DedisysCluster") -> Any:
    return RebookingReconciliationHandler(
        lambda ref: cluster.entity_on(min(cluster.nodes), ref)
    )


# ----------------------------------------------------------------------
# alarm tracking system (§1.4)
# ----------------------------------------------------------------------
#: Alarm kinds cycled over generated alarms, in sorted table order.
ATS_ALARM_KINDS = ("Power", "Radio", "Signal")


def _ats_deploy(cluster: "DedisysCluster", params: Mapping[str, Any]) -> None:
    cluster.deploy(Alarm)
    cluster.deploy(RepairReport)
    cluster.register_constraint(ats_constraint_registration())


def _ats_group(
    cluster: "DedisysCluster",
    node_ids: tuple[str, ...],
    index: int,
    params: Mapping[str, Any],
) -> tuple["ObjectRef", ...]:
    kind = ATS_ALARM_KINDS[index % len(ATS_ALARM_KINDS)]
    alarm_node = _node_for(node_ids, 2 * index)
    report_node = _node_for(node_ids, 2 * index + 1)
    alarm = cluster.create_entity(
        alarm_node,
        "Alarm",
        f"AL{index}",
        {"alarm_kind": kind, "description": f"alarm {index}"},
    )
    report = cluster.create_entity(
        report_node, "RepairReport", f"RR{index}", {"alarm": alarm}
    )
    cluster.invoke(alarm_node, alarm, "assign_report", report)
    return (alarm, report)


# ----------------------------------------------------------------------
# distributed telecom management system (§1.4, [SG03])
# ----------------------------------------------------------------------
def _dtms_deploy(cluster: "DedisysCluster", params: Mapping[str, Any]) -> None:
    cluster.deploy(Site)
    cluster.deploy(ChannelEndpoint)
    cluster.register_constraints(dtms_constraint_registrations())


def _dtms_group(
    cluster: "DedisysCluster",
    node_ids: tuple[str, ...],
    index: int,
    params: Mapping[str, Any],
) -> tuple["ObjectRef", ...]:
    node_a = _node_for(node_ids, 2 * index)
    node_b = _node_for(node_ids, 2 * index + 1)
    site_a = cluster.create_entity(
        node_a, "Site", f"S{index}a", {"name": f"site-{index}-a"}
    )
    site_b = cluster.create_entity(
        node_b, "Site", f"S{index}b", {"name": f"site-{index}-b"}
    )
    end_a = cluster.create_entity(
        node_a,
        "ChannelEndpoint",
        f"E{index}a",
        {"channel_id": f"ch{index}", "site": site_a},
    )
    end_b = cluster.create_entity(
        node_b,
        "ChannelEndpoint",
        f"E{index}b",
        {"channel_id": f"ch{index}", "site": site_b, "peer": end_a},
    )
    # ``set_peer`` is not constraint-affected, so wiring back is a plain
    # replicated write.
    cluster.invoke(node_a, end_a, "set_peer", end_b)
    return (end_a, end_b)


# ----------------------------------------------------------------------
# project management (§2.3's domain, distributed)
# ----------------------------------------------------------------------
def _projectmgmt_deploy(cluster: "DedisysCluster", params: Mapping[str, Any]) -> None:
    cluster.deploy(StaffMember)
    cluster.deploy(ProjectRecord)
    cluster.register_constraints(projectmgmt_constraint_registrations())


def _projectmgmt_group(
    cluster: "DedisysCluster",
    node_ids: tuple[str, ...],
    index: int,
    params: Mapping[str, Any],
) -> tuple["ObjectRef", ...]:
    member_node = _node_for(node_ids, 2 * index)
    project_node = _node_for(node_ids, 2 * index + 1)
    member = cluster.create_entity(
        member_node,
        "StaffMember",
        f"M{index}",
        {"name": f"member-{index}", "weekly_limit": float(params.get("weekly_limit", 40.0))},
    )
    project = cluster.create_entity(
        project_node,
        "ProjectRecord",
        f"P{index}",
        {
            "title": f"project-{index}",
            "budget": float(params.get("budget", 1000.0)),
            "staff": (member,),
        },
    )
    cluster.invoke(member_node, member, "set_active_project", project)
    return (member, project)


# ----------------------------------------------------------------------
# auctions (new corpus domain)
# ----------------------------------------------------------------------
def _auction_deploy(cluster: "DedisysCluster", params: Mapping[str, Any]) -> None:
    cluster.deploy(Auction)
    cluster.register_constraints(auction_constraint_registrations())


def _auction_group(
    cluster: "DedisysCluster",
    node_ids: tuple[str, ...],
    index: int,
    params: Mapping[str, Any],
) -> tuple["ObjectRef", ...]:
    reserve = int(params.get("reserve_price", 50))
    ref = cluster.create_entity(
        _node_for(node_ids, index),
        "Auction",
        f"A{index}",
        {"item": f"lot-{index}", "reserve_price": reserve},
    )
    return (ref,)


# ----------------------------------------------------------------------
# bounded counters (chaos runs, the §5.2 availability study)
# ----------------------------------------------------------------------
def _counter_deploy(cluster: "DedisysCluster", params: Mapping[str, Any]) -> None:
    cluster.deploy(Record)
    cluster.register_constraint(counter_constraint_registration())


def _counter_group(
    cluster: "DedisysCluster",
    node_ids: tuple[str, ...],
    index: int,
    params: Mapping[str, Any],
) -> tuple["ObjectRef", ...]:
    return (cluster.create_entity(_node_for(node_ids, index), "Record", f"rec-{index}"),)


DOMAINS: dict[str, Domain] = {}


def register_domain(domain: Domain) -> Domain:
    """Add a domain to the registry (last registration wins)."""
    DOMAINS[domain.name] = domain
    return domain


def get_domain(name: str) -> Domain:
    try:
        return DOMAINS[name]
    except KeyError:
        raise KeyError(
            f"unknown domain {name!r}; registered: {sorted(DOMAINS)}"
        ) from None


def domain_names() -> list[str]:
    return sorted(DOMAINS)


register_domain(
    Domain(
        name="flight_booking",
        layout=("Flight",),
        methods={
            "Flight": ("sell_tickets", "cancel_tickets", "get_sold", "free_seats"),
        },
        deploy=_flight_deploy,
        create_group=_flight_group,
        reconcile_handler=_flight_reconcile_handler,
    )
)

register_domain(
    Domain(
        name="ats",
        layout=("Alarm", "RepairReport"),
        methods={
            "Alarm": ("set_alarm_kind", "close", "get_open", "get_alarm_kind"),
            "RepairReport": (
                "set_affected_component",
                "set_component_kind",
                "complete",
                "get_completed",
            ),
        },
        deploy=_ats_deploy,
        create_group=_ats_group,
    )
)

register_domain(
    Domain(
        name="dtms",
        layout=("ChannelEndpoint", "ChannelEndpoint"),
        methods={
            "ChannelEndpoint": (
                "configure",
                "enable",
                "disable",
                "get_frequency",
                "get_enabled",
            ),
        },
        deploy=_dtms_deploy,
        create_group=_dtms_group,
    )
)

register_domain(
    Domain(
        name="projectmgmt",
        layout=("StaffMember", "ProjectRecord"),
        methods={
            "StaffMember": ("log_hours", "start_week", "get_hours_logged"),
            "ProjectRecord": ("charge", "activate", "close", "get_cost"),
        },
        deploy=_projectmgmt_deploy,
        create_group=_projectmgmt_group,
    )
)

register_domain(
    Domain(
        name="auction",
        layout=("Auction",),
        methods={
            "Auction": (
                "place_bid",
                "close_auction",
                "reopen",
                "current_price",
                "get_highest_bid",
            ),
        },
        deploy=_auction_deploy,
        create_group=_auction_group,
    )
)

register_domain(
    Domain(
        name="counter",
        layout=("Record",),
        methods={"Record": ("set_counter", "bump", "get_counter")},
        deploy=_counter_deploy,
        create_group=_counter_group,
    )
)
