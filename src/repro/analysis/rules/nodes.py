"""Node-ownership rule (``NODE``).

A node's objects, history, update records and threat store change only
through its own message handler; reconciliation's coordinator touches its
own ``Node``, store and CCMgr and reaches the others by group messages
(DESIGN.md §5).  The shared per-node tables (``nodes``, ``threat_stores``,
``ccmgrs``) stay addressable, so nothing at runtime stops a manager from
looping over them.  ``NODE001`` flags the two shapes such a loop takes in
``core/`` and ``replication/``: a table subscripted by a ``for`` or
comprehension target of the same function, and ``.values()`` /
``.items()`` over a table.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..engine import Finding, Project, Rule, SourceModule, register
from .messages import _terminal_name

#: The per-node tables a manager may index only by the acting node.
NODE_TABLES = frozenset({"nodes", "threat_stores", "ccmgrs"})

#: Packages (relative to the analysis root) whose managers act as one node.
_SCOPE = ("core/", "replication/")

_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _own_nodes(function: ast.AST) -> Iterator[ast.AST]:
    """Every node of ``function``'s body, not descending into nested scopes."""
    stack = list(ast.iter_child_nodes(function))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def _loop_targets(function: ast.AST) -> set[str]:
    targets: set[str] = set()
    for node in _own_nodes(function):
        if isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension)):
            targets.update(
                name.id for name in ast.walk(node.target) if isinstance(name, ast.Name)
            )
    return targets


@register
class ForeignNodeStateRule(Rule):
    code = "NODE001"
    name = "foreign-node-state"
    description = (
        "core/ and replication/ index nodes / threat_stores / ccmgrs only by "
        "the acting node: no loop over the table or subscript by a loop "
        "target; other nodes change through their own handler"
    )

    def check_module(self, module: SourceModule, project: Project) -> Iterator[Finding]:
        rel = module.rel_path.removeprefix("repro/").removeprefix("src/repro/")
        if not rel.startswith(_SCOPE):
            return
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("values", "items")
                and _terminal_name(node.func.value) in NODE_TABLES
            ):
                yield self._finding(
                    module,
                    node,
                    f"{ast.unparse(node.func)}() walks every node's entry; "
                    "reach the other nodes by message",
                )
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                targets = _loop_targets(node)
                for inner in _own_nodes(node):
                    if (
                        isinstance(inner, ast.Subscript)
                        and _terminal_name(inner.value) in NODE_TABLES
                        and isinstance(inner.slice, ast.Name)
                        and inner.slice.id in targets
                    ):
                        yield self._finding(
                            module,
                            inner,
                            f"{ast.unparse(inner)} in {node.name}() is keyed by a "
                            "loop target; reach the other nodes by message",
                        )

    def _finding(self, module: SourceModule, node: ast.AST, message: str) -> Finding:
        return Finding(
            code=self.code,
            message=message,
            path=module.rel_path,
            line=node.lineno,
            col=node.col_offset,
        )
