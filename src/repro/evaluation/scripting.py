"""Script-based test application (DedisysTest, [Ke07], §5.1).

The paper's measurements used a script-based test application "in order to
ensure repeatability of the tests".  This module provides the analogue: a
small line-oriented script language, parsed into a
:class:`~repro.check.scenario.Scenario` that the checker's own
:class:`~repro.check.runner.OpDriver` plays —

    nodes a b c
    deploy Flight
    constraint ticket
    create a Flight f1 seats=80
    invoke a Flight#f1 sell_tickets 70
    partition a | b c
    assert-degraded true
    invoke-accept a Flight#f1 sell_tickets 7
    tx-accept b Flight#f1 sell_tickets 8 ; Flight#f1 get_sold
    assert-threats a 1
    heal
    reconcile
    assert-attr c Flight#f1 sold 85

``create``, ``delete``, ``invoke``, ``tx`` and ``reconcile`` lines become
ops (a plain ``invoke`` or ``tx`` negotiates with no handler, its
``-accept`` form accepts every threat); ``partition``, ``crash``,
``recover`` and ``heal`` become fault events; every other line (``nodes``,
``deploy``, ``constraint``, ``assert-*``) runs right after the line
before it.  Lines lie :data:`GAP` apart on the timeline, so they fire in
line order.  Once an op has charged its cost, every later line is overdue
and fires at once, so the clock moves by what the ops charge.  Before the
first charge, each entry (an op, a fault event, the check after a line)
moves it by one :data:`GAP` instead: a script of faults and asserts alone
ends a few simulated nanoseconds in.

Scripts fail loudly with line numbers; every executed step is logged so a
run can be replayed and diffed.  ``expect-error <line>`` expects any
exception from the line and logs its message.
"""

from __future__ import annotations

import re
import shlex
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Mapping

from ..check.runner import OpDriver
from ..check.scenario import Op, Scenario
from ..cluster import ClusterConfig, DedisysCluster
from ..core.metadata import ConstraintRegistration
from ..objects import Entity, ObjectRef

#: Simulated seconds between two timeline entries: below any charge (the
#: smallest, a cached repository lookup, is 4e-7 s).
GAP = 1e-9


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
    class_name, oid = text.split("#", 1)
    return ObjectRef(class_name, oid)


def _split(tokens: list[str], separator: str) -> list[list[str]]:
    parts: list[list[str]] = [[]]
    for token in tokens:
        if token == separator:
            parts.append([])
        else:
            parts[-1].append(token)
    return parts


def _raise(error: Exception) -> None:
    raise error


class ScriptRunner:
    """Parses DedisysTest scripts into a :class:`Scenario` and plays it
    against a fresh cluster."""

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
        self._result = result = ScriptResult()
        self._ops: list[Op] = []
        self._faults: list[tuple[float, str, tuple[Any, ...]]] = []
        self._checks: list[tuple[float, Callable[[], None]]] = []
        self._refs: dict[ObjectRef, int] = {}  # created ref -> its ref index
        for line_number, raw in enumerate(script.splitlines(), start=1):
            # Comments start at line begin or after whitespace, so object
            # references like Flight#f1 survive.
            line = re.sub(r"(^|\s)#.*$", "", raw).strip()
            if not line:
                continue
            if line.startswith("expect-error "):
                line = line[len("expect-error "):].strip()
                expect_error = True
            else:
                expect_error = False
            self._add(partial(self._judge, line_number, raw, line, expect_error), line)
        if self.cluster is not None:
            self._play()
            result.simulated_seconds = self.cluster.clock.now
        return result

    def _add(self, judge: Callable[[Callable[[], Exception | None]], None], line: str) -> None:
        """Put the line's op or fault event on the timeline, and its
        verdict right after it; a line that is neither runs at its turn."""
        try:
            entry = self._parse(line)
        except Exception as error:  # reported when the line's turn comes
            entry = partial(_raise, error)
        if isinstance(entry, Op):
            self._ops.append(entry)
            check = partial(judge, self._verdict_on_op)
        elif isinstance(entry, tuple):
            self._faults.append((self._next_at(), *entry))
            check = partial(judge, lambda: None)
        else:
            check = partial(judge, partial(self._run_line, entry))
        if self._ops or self._faults:
            self._checks.append((self._next_at(), check))
        else:  # nothing on the timeline yet: the line runs now
            check()

    def _next_at(self) -> float:
        """The next timeline entry's time, relative to the play's start."""
        return (len(self._ops) + len(self._faults) + len(self._checks)) * GAP

    def _play(self) -> None:
        """One :meth:`OpDriver.play` runs the timeline.  An op error that
        does not count as blocking stops the drain; the op's check reads
        it from the driver, and the drain goes on."""
        cluster = self.cluster
        for at, check in self._checks:
            cluster.scheduler.schedule_at(cluster.clock.now + at, check, label="script:check")
        scenario = Scenario(
            name="script",
            domain="",
            node_ids=cluster.config.node_ids,
            entities=0,
            ops=tuple(self._ops),
            fault_events=tuple(self._faults),
        )
        drive: Callable[[], Any] = partial(self._driver.play, scenario)
        while True:
            try:
                return drive()
            except Exception as error:
                if error is not self._driver.last_error:
                    raise
                drive = cluster.scheduler.drain

    # -- verdicts: each returns the line's error, or None -----------------
    @staticmethod
    def _run_line(action: Callable[[], None]) -> Exception | None:
        try:
            action()
        except AssertionError:
            raise
        except Exception as error:
            return error
        return None

    def _verdict_on_op(self) -> Exception | None:
        """The error of the op that fired just before; when it had none,
        its result counts."""
        driver, result = self._driver, self._result
        if driver.last_error is not None:
            return driver.last_error
        op, _served, value = driver.outcomes[-1]
        if op.kind in ("invoke", "tx"):
            result.last_result = value
            result.invocations += 1
        elif op.kind == "reconcile":
            result.reconciliations += 1
        return None

    def _judge(
        self,
        line_number: int,
        raw: str,
        line: str,
        expect_error: bool,
        verdict: Callable[[], Exception | None],
    ) -> None:
        result, error = self._result, verdict()
        if error is not None:
            if not expect_error:
                raise ScriptError(line_number, raw, str(error)) from error
            result.expected_errors += 1
            result.steps.append(f"{line} -> error as expected: {error}")
            return
        if expect_error:
            raise ScriptError(line_number, raw, "expected an error but the command succeeded")
        if not line.startswith("assert"):
            result.steps.append(line)

    # ------------------------------------------------------------------
    def _parse(self, line: str) -> Any:
        """The line's :class:`Op`, its ``(action, args)`` fault event, or
        the callable that runs it."""
        # shlex keeps quoted values (with spaces) as single tokens and
        # strips the quotes.
        command, *rest = shlex.split(line)
        name = command.replace("-", "_")
        handler = getattr(self, f"_op_{name}", None) or getattr(self, f"_fault_{name}", None)
        if handler is not None:
            return handler(rest)
        handler = getattr(self, f"_cmd_{name}", None)
        if handler is None:
            raise ValueError(f"unknown command {command!r}")
        return partial(handler, rest, self._result)

    def _require_cluster(self) -> DedisysCluster:
        if self.cluster is None:
            raise ValueError("no cluster yet — start the script with 'nodes ...'")
        return self.cluster

    def _op(self, kind: str, **fields: Any) -> Op:
        self._require_cluster()
        return Op(self._next_at(), kind, **fields)

    def _ref_index(self, text: str) -> int:
        ref = _parse_ref(text)
        if ref not in self._refs:
            raise ValueError(f"no create line before this one makes {text}")
        return self._refs[ref]

    # -- setup -----------------------------------------------------------
    def _cmd_nodes(self, args: list[str], result: ScriptResult) -> None:
        if not args:
            raise ValueError("'nodes' needs at least one node id")
        if self.cluster is not None:
            raise ValueError("'nodes' may appear only once")
        self.cluster = DedisysCluster(ClusterConfig(node_ids=tuple(args)))
        self._driver = OpDriver(self.cluster, ())

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
    def _op_create(self, args: list[str]) -> Op:
        if len(args) < 3:
            raise ValueError("usage: create <node> <Class> <oid> [field=value ...]")
        node, class_name, oid, *assignments = args
        attributes = {}
        for assignment in assignments:
            if "=" not in assignment:
                raise ValueError(f"expected field=value, got {assignment!r}")
            key, value = assignment.split("=", 1)
            attributes[key] = _parse_value(value)
        create = self._op("create", node=node, args=(class_name, oid, attributes))
        # The run's refs gain one per create op, in op order.
        self._refs[ObjectRef(class_name, oid)] = sum(op.kind == "create" for op in self._ops)
        return create

    def _op_delete(self, args: list[str]) -> Op:
        node, ref_text = args
        return self._op("delete", node=node, ref_index=self._ref_index(ref_text))

    # -- invocations -------------------------------------------------------
    def _invoke(self, args: list[str], answer: str) -> Op:
        if len(args) < 3:
            raise ValueError("usage: invoke <node> <Class#oid> <method> [args ...]")
        node, ref_text, method, *arguments = args
        values = tuple(_parse_value(argument) for argument in arguments)
        return self._op(
            "invoke", node=node, ref_index=self._ref_index(ref_text), method=method,
            args=values, answer=answer,
        )

    def _op_invoke(self, args: list[str]) -> Op:
        return self._invoke(args, "none")

    def _op_invoke_accept(self, args: list[str]) -> Op:
        """Invocation with an accept-all negotiation handler."""
        return self._invoke(args, "accept")

    def _tx(self, args: list[str], answer: str) -> Op:
        """``<node> <Class#oid> <method> [args ...] ; <Class#oid> ...``:
        the legs run in order in one transaction."""
        legs = []
        for leg in _split(args[1:], ";"):
            if len(leg) < 2:
                raise ValueError("usage: tx <node> <Class#oid> <method> [args ...] [; ...]")
            ref_text, method, *arguments = leg
            values = tuple(_parse_value(argument) for argument in arguments)
            legs.append((self._ref_index(ref_text), method, values))
        return self._op("tx", node=args[0], legs=tuple(legs), answer=answer)

    def _op_tx(self, args: list[str]) -> Op:
        return self._tx(args, "none")

    def _op_tx_accept(self, args: list[str]) -> Op:
        """A transaction with an accept-all negotiation handler."""
        return self._tx(args, "accept")

    def _op_reconcile(self, args: list[str]) -> Op:
        return self._op("reconcile")

    # -- failure control ----------------------------------------------------
    # A fault event fires on the timeline, so a bad node is refused here,
    # where the line is known, with the topology's own messages.
    def _fault_partition(self, args: list[str]) -> tuple[str, tuple[Any, ...]]:
        cluster = self._require_cluster()
        groups = [group for group in _split(args, "|") if group]
        if not groups:
            raise ValueError("usage: partition a b | c d")
        named = [node for group in groups for node in group]
        for node in named:
            if node not in cluster.nodes:
                raise KeyError(f"unknown node {node!r}")
            if named.count(node) > 1:
                raise ValueError(f"node {node} listed in two groups")
        return "partition", tuple(tuple(group) for group in groups)

    def _fault_crash(self, args: list[str]) -> tuple[str, tuple[Any, ...]]:
        (node,) = args
        if node not in self._require_cluster().nodes:
            raise KeyError(f"unknown node {node!r}")
        return "crash_node", (node,)

    def _fault_recover(self, args: list[str]) -> tuple[str, tuple[Any, ...]]:
        (node,) = args
        self._require_cluster()
        return "recover_node", (node,)

    def _fault_heal(self, args: list[str]) -> tuple[str, tuple[Any, ...]]:
        self._require_cluster()
        return "heal_all", ()

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
