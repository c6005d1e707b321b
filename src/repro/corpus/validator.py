"""Corpus validator: reject ill-formed scenarios before anything runs them.

Scenario-as-data only pays off if consumers can trust the data, so every
scenario — generated or hand-written — passes through here before the
chaos replayer, the explorer or a benchmark touches it.  Checks are
structural (no cluster is built): the domain must be registered, every op
must name a known node and a business method the domain's ``methods``
table allows for the entity class at its ``ref_index`` (each leg of a
``tx`` alike; a ``create`` names a class of the domain's layout and adds
one ref after the domain's), ops must not
originate on a node inside a crash window, fault actions must exist with
the right arity and name known nodes, partition groups must not overlap,
and concurrent fault episodes must not contradict each other (a node
crashed twice without recovering, a link failed twice without healing).

Issues are data too: ``(code, message)`` pairs with stable codes, so
tests assert on codes and humans read messages.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..apps.registry import DOMAINS, get_domain
from ..check.scenario import Scenario
from ..faults.schedule import ACTIONS
from .generator import FAULT_PLANS


@dataclass(frozen=True)
class Issue:
    """One validation finding with a stable, assertable code."""

    code: str
    message: str


def _issue(issues: list[Issue], code: str, message: str) -> None:
    issues.append(Issue(code=code, message=message))


def _validate_faults(
    scenario: Scenario, issues: list[Issue]
) -> list[tuple[str, float, float]]:
    """Replays the fault script on a shadow topology; returns the crash
    windows ``(node, from, until)`` it saw — ``recover_node`` and
    ``heal_all`` both end one, a crash left open ends at +inf."""
    nodes = set(scenario.node_ids)
    windows: list[tuple[str, float, float]] = []
    crashed: dict[str, float] = {}
    failed_links: set[tuple[str, str]] = set()
    for at, action, args in sorted(
        scenario.fault_events, key=lambda event: (event[0], event[1])
    ):
        if action not in ACTIONS:
            _issue(issues, "unknown-fault", f"unknown fault action {action!r} at {at}")
            continue
        arity = ACTIONS[action]
        if arity is not None and len(args) != arity:
            _issue(
                issues,
                "bad-fault-arity",
                f"{action} at {at} takes {arity} args, got {len(args)}",
            )
            continue
        if action in ("crash_node", "recover_node"):
            node = str(args[0])
            if node not in nodes:
                _issue(issues, "unknown-node", f"{action} at {at} targets unknown node {node!r}")
                continue
            if action == "crash_node":
                if node in crashed:
                    _issue(
                        issues,
                        "overlapping-fault",
                        f"crash_node at {at}: {node!r} is already crashed",
                    )
                crashed.setdefault(node, at)
            elif node in crashed:
                windows.append((node, crashed.pop(node), at))
            else:
                _issue(
                    issues,
                    "overlapping-fault",
                    f"recover_node at {at}: {node!r} is not crashed",
                )
        elif action in ("fail_link", "heal_link"):
            a, b = str(args[0]), str(args[1])
            for node in (a, b):
                if node not in nodes:
                    _issue(
                        issues,
                        "unknown-node",
                        f"{action} at {at} names unknown node {node!r}",
                    )
            link = (min(a, b), max(a, b))
            if action == "fail_link":
                if link in failed_links:
                    _issue(
                        issues,
                        "overlapping-fault",
                        f"fail_link at {at}: link {link} is already failed",
                    )
                failed_links.add(link)
            else:
                failed_links.discard(link)
        elif action == "partition":
            group_of: dict[str, int] = {}
            for index, group in enumerate(args):
                for node in group:
                    name = str(node)
                    if name not in nodes:
                        _issue(
                            issues,
                            "unknown-node",
                            f"partition at {at} names unknown node {name!r}",
                        )
                    if name in group_of:
                        _issue(
                            issues,
                            "overlapping-fault",
                            f"partition at {at}: node {name!r} in two groups",
                        )
                    group_of[name] = index
            # As in Topology.partition: the split replaces every earlier
            # link failure, and unmentioned nodes form one more group.
            failed_links = {
                (a, b)
                for a in scenario.node_ids
                for b in scenario.node_ids
                if a < b and group_of.get(a, -1) != group_of.get(b, -1)
            }
        elif action == "heal_all":
            windows.extend((node, crashed[node], at) for node in sorted(crashed))
            crashed.clear()
            failed_links.clear()
    windows.extend((node, crashed[node], float("inf")) for node in sorted(crashed))
    return windows


def _validate_ops(
    scenario: Scenario, issues: list[Issue], windows: list[tuple[str, float, float]]
) -> None:
    domain = get_domain(scenario.domain)
    nodes = set(scenario.node_ids)
    # The run's refs by class: the domain's groups, then one per create op.
    classes = [domain.ref_class(index) for index in range(scenario.entities * len(domain.layout))]
    classes += [op.args[0] for op in scenario.ops if op.kind == "create"]
    for position, op in enumerate(scenario.ops):
        if op.kind == "reconcile":
            continue
        where = f"op[{position}] at {op.at}"
        if op.node not in nodes:
            _issue(issues, "unknown-node", f"{where} runs on unknown node {op.node!r}")
        if op.kind == "create" and op.args[0] not in domain.layout:
            _issue(
                issues,
                "unknown-class",
                f"{where} creates a {op.args[0]}, not in the {scenario.domain} layout",
            )
        targets = [op.ref_index] if op.kind == "delete" else [leg[0] for leg in op.calls()]
        bad = [index for index in targets if not 0 <= index < len(classes)]
        if bad:
            _issue(issues, "bad-ref", f"{where} targets ref {bad[0]}, scenario has {len(classes)}")
            continue
        for index, method, _args in op.calls():
            if method not in domain.methods.get(classes[index], ()):
                _issue(
                    issues,
                    "unknown-op",
                    f"{where}: {classes[index]}.{method} is not in the {scenario.domain} grammar",
                )
        for node, start, until in windows:
            if node == op.node and start <= op.at < until:
                _issue(
                    issues,
                    "op-on-crashed-node",
                    f"{where} runs on {op.node!r}, crashed during [{start}, {until})",
                )
                break


def validate_scenario(scenario: Scenario) -> list[Issue]:
    """All structural problems of ``scenario`` (empty list == well-formed)."""
    issues: list[Issue] = []
    if scenario.domain not in DOMAINS:
        _issue(
            issues,
            "unknown-domain",
            f"unknown domain {scenario.domain!r}; registered: {sorted(DOMAINS)}",
        )
        return issues
    if not scenario.node_ids:
        _issue(issues, "unknown-node", "scenario has no nodes")
    if scenario.entities < 1:
        _issue(issues, "bad-ref", f"scenario needs >= 1 entity group, has {scenario.entities}")
    fault_plan = str(scenario.params.get("fault_plan", "episodes"))
    if fault_plan not in FAULT_PLANS:
        _issue(
            issues,
            "unknown-fault-plan",
            f"unknown fault plan {fault_plan!r}; known: {sorted(FAULT_PLANS)}",
        )
    _validate_ops(scenario, issues, _validate_faults(scenario, issues))
    return issues

