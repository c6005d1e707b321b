"""Script-based test application (DedisysTest, [Ke07], §5.1).

The paper's measurements used a script-based test application "in order to
ensure repeatability of the tests".  This module provides the analogue: a
small line-oriented script language driving a cluster deterministically —

    nodes a b c
    deploy Flight
    constraint ticket
    create a Flight f1 seats=80
    invoke a Flight#f1 sell_tickets 70
    partition a | b c
    assert-degraded true
    invoke-accept a Flight#f1 sell_tickets 7
    invoke-accept b Flight#f1 sell_tickets 8
    assert-threats a 1
    heal
    reconcile
    assert-attr c Flight#f1 sold 85

Scripts fail loudly with line numbers; every executed step is logged so a
run can be replayed and diffed.
"""

from __future__ import annotations

import re
import shlex
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from ..cluster import ClusterConfig, DedisysCluster
from ..core import AcceptAllHandler
from ..core.metadata import ConstraintRegistration
from ..objects import Entity, ObjectRef


class ScriptError(ValueError):
    """A script could not be parsed or executed."""

    def __init__(self, line_number: int, line: str, reason: str) -> None:
        super().__init__(f"line {line_number}: {reason} (in {line!r})")
        self.line_number = line_number
        self.line = line
        self.reason = reason


@dataclass
class ScriptResult:
    """Log and statistics of one script run."""

    steps: list[str] = field(default_factory=list)
    invocations: int = 0
    assertions: int = 0
    expected_errors: int = 0
    reconciliations: int = 0
    last_result: Any = None
    simulated_seconds: float = 0.0


def _parse_value(text: str) -> Any:
    lowered = text.lower()
    if lowered == "true":
        return True
    if lowered == "false":
        return False
    if lowered in ("none", "null"):
        return None
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    if text.startswith('"') and text.endswith('"') and len(text) >= 2:
        return text[1:-1]
    return text


def _parse_ref(text: str) -> ObjectRef:
    if "#" not in text:
        raise ValueError(f"expected Class#oid reference, got {text!r}")
    class_name, _, oid = text.partition("#")
    return ObjectRef(class_name, oid)


class ScriptRunner:
    """Executes DedisysTest scripts against a fresh cluster."""

    def __init__(
        self,
        entity_classes: Mapping[str, type[Entity]],
        constraints: Mapping[str, Callable[[], ConstraintRegistration]] | None = None,
    ) -> None:
        self.entity_classes = dict(entity_classes)
        self.constraints = dict(constraints or {})
        self.cluster: DedisysCluster | None = None

    # ------------------------------------------------------------------
    def run(self, script: str) -> ScriptResult:
        result = ScriptResult()
        pending_error: str | None = None
        for line_number, raw in enumerate(script.splitlines(), start=1):
            # Comments start at line begin or after whitespace, so object
            # references like Flight#f1 survive.
            line = re.sub(r"(^|\s)#.*$", "", raw).strip()
            if not line:
                continue
            if line.startswith("expect-error "):
                pending_error = line[len("expect-error "):].strip()
                line = pending_error
                expect_error = True
            else:
                expect_error = False
            try:
                self._execute(line, result)
            except AssertionError:
                raise
            except Exception as error:
                if expect_error:
                    result.expected_errors += 1
                    result.steps.append(f"{line} -> error as expected: {error}")
                    continue
                raise ScriptError(line_number, raw, str(error)) from error
            if expect_error:
                raise ScriptError(
                    line_number, raw, "expected an error but the command succeeded"
                )
        if self.cluster is not None:
            result.simulated_seconds = self.cluster.clock.now
        return result

    # ------------------------------------------------------------------
    def _execute(self, line: str, result: ScriptResult) -> None:
        # shlex keeps quoted values (with spaces) as single tokens and
        # strips the quotes.
        command, *rest = shlex.split(line)
        handler = getattr(self, f"_cmd_{command.replace('-', '_')}", None)
        if handler is None:
            raise ValueError(f"unknown command {command!r}")
        handler(rest, result)
        if not line.startswith("assert"):
            result.steps.append(line)

    def _require_cluster(self) -> DedisysCluster:
        if self.cluster is None:
            raise ValueError("no cluster yet — start the script with 'nodes ...'")
        return self.cluster

    # -- setup -----------------------------------------------------------
    def _cmd_nodes(self, args: list[str], result: ScriptResult) -> None:
        if not args:
            raise ValueError("'nodes' needs at least one node id")
        if self.cluster is not None:
            raise ValueError("'nodes' may appear only once")
        self.cluster = DedisysCluster(ClusterConfig(node_ids=tuple(args)))

    def _cmd_deploy(self, args: list[str], result: ScriptResult) -> None:
        cluster = self._require_cluster()
        (class_name,) = args
        if class_name not in self.entity_classes:
            raise ValueError(f"unknown entity class {class_name!r}")
        cluster.deploy(self.entity_classes[class_name])

    def _cmd_constraint(self, args: list[str], result: ScriptResult) -> None:
        cluster = self._require_cluster()
        (name,) = args
        if name not in self.constraints:
            raise ValueError(f"unknown constraint {name!r}")
        cluster.register_constraint(self.constraints[name]())

    # -- entity lifecycle -------------------------------------------------
    def _cmd_create(self, args: list[str], result: ScriptResult) -> None:
        cluster = self._require_cluster()
        if len(args) < 3:
            raise ValueError("usage: create <node> <Class> <oid> [field=value ...]")
        node, class_name, oid, *assignments = args
        attributes = {}
        for assignment in assignments:
            if "=" not in assignment:
                raise ValueError(f"expected field=value, got {assignment!r}")
            key, _, value = assignment.partition("=")
            attributes[key] = _parse_value(value)
        cluster.create_entity(node, class_name, oid, attributes)

    def _cmd_delete(self, args: list[str], result: ScriptResult) -> None:
        cluster = self._require_cluster()
        node, ref_text = args
        cluster.delete_entity(node, _parse_ref(ref_text))

    # -- invocations -------------------------------------------------------
    def _invoke(self, args: list[str], result: ScriptResult, negotiation: Any) -> None:
        cluster = self._require_cluster()
        if len(args) < 3:
            raise ValueError("usage: invoke <node> <Class#oid> <method> [args ...]")
        node, ref_text, method, *arguments = args
        values = tuple(_parse_value(argument) for argument in arguments)
        result.last_result = cluster.invoke(
            node, _parse_ref(ref_text), method, *values, negotiation_handler=negotiation
        )
        result.invocations += 1

    def _cmd_invoke(self, args: list[str], result: ScriptResult) -> None:
        self._invoke(args, result, None)

    def _cmd_invoke_accept(self, args: list[str], result: ScriptResult) -> None:
        """Invocation with an accept-all negotiation handler."""
        self._invoke(args, result, AcceptAllHandler())

    # -- failure control ----------------------------------------------------
    def _cmd_partition(self, args: list[str], result: ScriptResult) -> None:
        cluster = self._require_cluster()
        groups: list[set[str]] = [set()]
        for token in args:
            if token == "|":
                groups.append(set())
            else:
                groups[-1].add(token)
        groups = [group for group in groups if group]
        if not groups:
            raise ValueError("usage: partition a b | c d")
        cluster.partition(*groups)

    def _cmd_crash(self, args: list[str], result: ScriptResult) -> None:
        (node,) = args
        self._require_cluster().network.crash_node(node)

    def _cmd_recover(self, args: list[str], result: ScriptResult) -> None:
        (node,) = args
        self._require_cluster().network.recover_node(node)

    def _cmd_heal(self, args: list[str], result: ScriptResult) -> None:
        self._require_cluster().heal()

    def _cmd_reconcile(self, args: list[str], result: ScriptResult) -> None:
        self._require_cluster().reconcile()
        result.reconciliations += 1

    # -- assertions ----------------------------------------------------------
    def _cmd_assert_attr(self, args: list[str], result: ScriptResult) -> None:
        cluster = self._require_cluster()
        node, ref_text, attribute, expected_text = args
        entity = cluster.entity_on(node, _parse_ref(ref_text))
        actual = entity._get(attribute)
        expected = _parse_value(expected_text)
        assert actual == expected, (
            f"{ref_text}.{attribute} on {node}: expected {expected!r}, got {actual!r}"
        )
        result.assertions += 1

    def _cmd_assert_result(self, args: list[str], result: ScriptResult) -> None:
        (expected_text,) = args
        expected = _parse_value(expected_text)
        assert result.last_result == expected, (
            f"last result: expected {expected!r}, got {result.last_result!r}"
        )
        result.assertions += 1

    def _cmd_assert_threats(self, args: list[str], result: ScriptResult) -> None:
        cluster = self._require_cluster()
        node, expected_text = args
        actual = cluster.threat_stores[node].count_identities()
        expected = int(expected_text)
        assert actual == expected, (
            f"threats on {node}: expected {expected}, got {actual}"
        )
        result.assertions += 1

    def _cmd_assert_degraded(self, args: list[str], result: ScriptResult) -> None:
        cluster = self._require_cluster()
        (expected_text,) = args
        expected = _parse_value(expected_text)
        assert cluster.is_degraded() == expected, (
            f"degraded: expected {expected}, got {cluster.is_degraded()}"
        )
        result.assertions += 1

    def _cmd_assert_exists(self, args: list[str], result: ScriptResult) -> None:
        cluster = self._require_cluster()
        node, ref_text, expected_text = args
        actual = cluster.nodes[node].container.has(_parse_ref(ref_text))
        expected = _parse_value(expected_text)
        assert actual == expected, (
            f"{ref_text} on {node}: expected exists={expected}, got {actual}"
        )
        result.assertions += 1
