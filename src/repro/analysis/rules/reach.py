"""REACH001: every def in the package is reached from an entry point.

A function, method or class that no entry point reaches is code only its
own tests run.  The entry points are every file under the checkout's
``benchmarks/`` and ``examples/``, the package's ``__main__`` modules
(and any module with an ``if __name__ == ...`` block), the ``reexport``
tables and ``apps/registry.py``; ``tests/`` is not one.

Reach is by *name*, not by the resolved call graph (which links a call on
an untyped receiver only when the method name is unique): a def is
reached when its name occurs in reached code as an identifier, an
attribute or a word of a string, or when it starts with the ``..._``
head of a name that reached code builds for ``getattr`` / ``hasattr``
(``getattr(self, "_cmd_" + kind)``, ``getattr(self, f"_apply_{action}")``).
Units follow what Python runs: a module's top level when its name is
reached (imported), a class body with its module, a function body when
the function is reached.  Decorators, bases and defaults belong to the
enclosing unit; a method is reached only with its class, a top-level def
only with its module, a nested def is part of its function.  Dunders and
``@register``-ed rule classes are always reached with their parent.
Docstrings reach nothing.  The rule needs the checkout, so it is silent
unless the analysed root is ``<checkout>/src/<package>``.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from ..engine import Finding, Project, Rule, SourceModule, register

#: Checkout trees whose every file is an entry point.
_ENTRY_TREES = ("benchmarks", "examples")

#: Package modules that are entry points wherever they are imported from.
_ENTRY_MODULES = ("apps/registry.py",)

_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_TRAILING_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*_$")

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

#: Builtins whose second argument names an attribute to dispatch on.
_DISPATCH = ("getattr", "hasattr")


@dataclass(eq=False)
class _Unit:
    """A stretch of code that runs as one: a module's top level, a class
    body or a function body."""

    kind: str  # "module" | "class" | "function" | "method"
    name: str
    qualname: str
    module: SourceModule | None
    line: int
    parent: _Unit | None = None
    always: bool = False
    names: set[str] = field(default_factory=set)
    prefixes: set[str] = field(default_factory=set)


def _scan(nodes: Iterable[ast.AST], unit: _Unit) -> None:
    """Add every name and dispatch prefix under ``nodes`` to ``unit``."""
    prose: set[ast.AST] = set()
    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Name):
                unit.names.add(node.id)
            elif isinstance(node, ast.Attribute):
                unit.names.add(node.attr)
            elif isinstance(node, ast.alias):
                unit.names.update(node.name.split("."))
            elif isinstance(node, ast.ImportFrom) and node.module:
                unit.names.update(node.module.split("."))
            elif isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
                prose.add(node.value)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if node not in prose:
                    unit.names.update(_WORD.findall(node.value))
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in _DISPATCH
                and len(node.args) > 1
            ):
                _add_prefix(node.args[1], unit)


def _add_prefix(node: ast.AST, unit: _Unit) -> None:
    """Record the leading ``..._`` of a built attribute name."""
    while isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        node = node.left
    if isinstance(node, ast.JoinedStr) and node.values:
        node = node.values[0]
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        match = _TRAILING_WORD.search(node.value)
        if match:
            unit.prefixes.add(match.group())


def _header(node: ast.AST) -> list[ast.AST]:
    """The parts of a def that run when the enclosing code runs."""
    parts: list[ast.AST] = list(node.decorator_list)  # type: ignore[attr-defined]
    if isinstance(node, ast.ClassDef):
        return parts + node.bases + node.keywords
    args = node.args  # type: ignore[attr-defined]
    return parts + args.defaults + [d for d in args.kw_defaults if d is not None]


def _is_main_guard(stmt: ast.stmt) -> bool:
    return (
        isinstance(stmt, ast.If)
        and isinstance(stmt.test, ast.Compare)
        and isinstance(stmt.test.left, ast.Name)
        and stmt.test.left.id == "__name__"
    )


class _Reach:
    """The units of one project and the names its entry points reach."""

    def __init__(self, project: Project, checkout: Path) -> None:
        self.units: list[_Unit] = []
        self.entry = _Unit("module", "<entry points>", "", None, 0)
        for tree in _ENTRY_TREES:
            for path in sorted((checkout / tree).rglob("*.py")):
                if "__pycache__" not in path.parts:
                    module = ast.parse(path.read_text(encoding="utf-8"))
                    _scan([module], self.entry)
        for module in project.modules:
            self._add_module(module, project.root.name)

    def _add_module(self, module: SourceModule, package: str) -> None:
        stem = Path(module.rel_path).stem
        parts = module.rel_path.split("/")
        name = (parts[-2] if len(parts) > 1 else package) if stem == "__init__" else stem
        unit = _Unit(
            "module", name, module.rel_path, module, 1,
            always=stem == "__main__" or module.rel_path in _ENTRY_MODULES
            or any(_is_main_guard(stmt) for stmt in module.tree.body),
        )
        self.units.append(unit)
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "reexport"
            ):
                _scan(node.args, self.entry)
        self._add_body(module.tree.body, unit, module, "")

    def _add_body(
        self, body: list[ast.stmt], unit: _Unit, module: SourceModule, prefix: str
    ) -> None:
        code: list[ast.AST] = []
        for stmt in body:
            if not isinstance(stmt, _DEFS):
                code.append(stmt)
                continue
            code += _header(stmt)
            qualname = prefix + stmt.name
            if isinstance(stmt, ast.ClassDef):
                child = _Unit(
                    "class", stmt.name, qualname, module, stmt.lineno, unit,
                    always=any(
                        isinstance(deco, ast.Name) and deco.id == "register"
                        for deco in stmt.decorator_list
                    ),
                )
                self.units.append(child)
                self._add_body(stmt.body, child, module, qualname + ".")
                continue
            child = _Unit(
                "method" if unit.kind == "class" else "function",
                stmt.name, qualname, module, stmt.lineno, unit,
                always=stmt.name.startswith("__") and stmt.name.endswith("__"),
            )
            self.units.append(child)
            _scan(stmt.body, child)
        _scan(code, unit)

    def unreached(self) -> list[_Unit]:
        names, prefixes = set(self.entry.names), set(self.entry.prefixes)
        reached: set[_Unit] = set()
        changed = True
        while changed:
            changed = False
            for unit in self.units:
                if unit in reached or (unit.parent and unit.parent not in reached):
                    continue
                if (
                    unit.always
                    or unit.name in names
                    or unit.name.startswith(tuple(prefixes))
                ):
                    reached.add(unit)
                    names |= unit.names
                    prefixes |= unit.prefixes
                    changed = True
        return [
            unit
            for unit in self.units
            if unit.parent  # modules are not defs
            and not unit.always
            and unit not in reached
            and (unit.parent.kind == "module" or unit.parent in reached)
        ]


@register
class UnreachedDefinition(Rule):
    code = "REACH001"
    name = "unreached-definition"
    description = (
        "A function, method or class that no entry point reaches by name "
        "(benchmarks/, examples/, __main__ modules, re-export tables, "
        "apps/registry.py); tests/ is not an entry point."
    )

    def check_project(self, project: Project) -> Iterable[Finding]:
        if project.root.parent.name != "src":
            return ()
        reach = _Reach(project, project.root.parent.parent)
        return [
            Finding(
                code=self.code,
                message=f"{unit.kind} {unit.qualname} is reached from no entry point",
                path=unit.module.rel_path,  # type: ignore[union-attr]
                line=unit.line,
            )
            for unit in reach.unreached()
        ]
