"""Invariant-probe purity rule (``PRB``).

The model checker evaluates every invariant after every scheduler step.
That is only sound if ``Invariant.check`` is a pure observation: a probe
that invokes an entity method, advances the clock, sends a message, or
mutates a threat store changes the very schedule being explored.  The
rule whitelists the read-only cluster API (plus builtins and ``self``
state) inside ``check``/``begin_run`` bodies of ``Invariant`` subclasses.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..engine import Finding, Project, Rule, SourceModule, register
from .constraints import _closure, _collect_classes

#: Read-only cluster/probe API callable from an invariant.
READONLY_API = frozenset(
    {
        # DedisysCluster probe API
        "write_targets",
        "replica_states",
        "diverged_replicas",
        "threat_accounting",
        "mode_of",
        # SimNetwork observation API
        "is_healthy",
        "reachable",
        "is_crashed",
        # ThreatStore observation API
        "pending",
        "count_identities",
        "persisted_records",
        # ReplicationManager / AdaptationEngine observation API
        # (adaptation guardrails read the action ledger and replica info)
        "is_replicated",
        "info",
        "state_of",
        # plain-data helpers
        "items",
        "values",
        "keys",
        "get",
        "to_dict",
        "startswith",
        "endswith",
        "join",
        "format",
    }
)

#: Pure builtins a probe may call.
PURE_BUILTINS = frozenset(
    {
        "len",
        "sorted",
        "set",
        "frozenset",
        "dict",
        "list",
        "tuple",
        "str",
        "int",
        "float",
        "bool",
        "repr",
        "min",
        "max",
        "sum",
        "abs",
        "round",
        "any",
        "all",
        "map",
        "filter",
        "enumerate",
        "zip",
        "range",
        "isinstance",
        "getattr",
        "hasattr",
        "iter",
        "next",
    }
)

_CHECKED_METHODS = ("check", "begin_run")


def _root_name(node: ast.expr) -> str | None:
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Call):
        return _root_name(node.func)
    return node.id if isinstance(node, ast.Name) else None


@register
class ProbePurityRule(Rule):
    code = "PRB001"
    name = "probe-purity"
    description = (
        "Invariant.check/begin_run must stay side-effect-free: only the "
        "read-only cluster API, pure builtins, and self state"
    )

    def check_project(self, project: Project) -> Iterator[Finding]:
        classes = _collect_classes(project)
        invariants = _closure(classes, frozenset({"Invariant"}))
        for name in sorted(invariants):
            info = classes[name]
            for method_name in _CHECKED_METHODS:
                method = info.methods.get(method_name)
                if method is None:
                    continue
                yield from self._check_body(info.module, name, method)

    def _check_body(
        self, module: SourceModule, invariant: str, method: ast.FunctionDef
    ) -> Iterator[Finding]:
        for node in ast.walk(method):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                if func.id in PURE_BUILTINS:
                    continue
                yield Finding(
                    code=self.code,
                    message=(
                        f"{invariant}.{method.name} calls {func.id}(), which is "
                        "not a whitelisted pure builtin; probes must not invoke "
                        "arbitrary functions"
                    ),
                    path=module.rel_path,
                    line=node.lineno,
                    col=node.col_offset,
                )
            elif isinstance(func, ast.Attribute):
                if _root_name(func.value) == "self":
                    continue  # the invariant's own bookkeeping
                if func.attr in READONLY_API:
                    continue
                yield Finding(
                    code=self.code,
                    message=(
                        f"{invariant}.{method.name} calls .{func.attr}(), which "
                        "is outside the read-only probe API"
                    ),
                    path=module.rel_path,
                    line=node.lineno,
                    col=node.col_offset,
                )
