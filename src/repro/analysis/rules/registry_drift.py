"""Observability registry drift rules (``REG``).

``repro.obs.registry`` is the canonical vocabulary of trace-event types.
Docs, dashboards, and golden-trace tests key off those strings, so an
event emitted under an unregistered type — or a registry entry nothing
emits any more — is drift worth failing CI over.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..engine import Finding, Project, Rule, SourceModule, register

REGISTRY_REL_PATH = "obs/registry.py"


def _dict_keys(module: SourceModule, name: str) -> dict[str, int]:
    """String keys (with line numbers) of a module-level dict assignment."""
    keys: dict[str, int] = {}
    for node in module.tree.body:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        for target in targets:
            if (
                isinstance(target, ast.Name)
                and target.id == name
                and isinstance(value, ast.Dict)
            ):
                for key in value.keys:
                    if isinstance(key, ast.Constant) and isinstance(key.value, str):
                        keys[key.value] = key.lineno
    return keys


def _find_registry(project: Project) -> SourceModule | None:
    module = project.by_rel_path.get(REGISTRY_REL_PATH)
    if module is not None:
        return module
    # Scanning a subtree (or a fixture tree) that carries the registry
    # under another prefix.
    for candidate in project.modules:
        if candidate.rel_path.endswith(REGISTRY_REL_PATH):
            return candidate
    return None


def _emit_sites(project: Project) -> Iterator[tuple[SourceModule, ast.Call, str]]:
    for module in project.modules:
        if module.rel_path.endswith(REGISTRY_REL_PATH):
            continue
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "emit"
                and node.args
            ):
                value = project.resolve_string(module, node.args[0])
                if value is not None:
                    yield module, node, value


@register
class UnregisteredEventRule(Rule):
    code = "REG001"
    name = "unregistered-trace-event"
    description = (
        "every tracer.emit(type) string must appear in "
        "repro.obs.registry.TRACE_EVENTS"
    )

    def check_project(self, project: Project) -> Iterator[Finding]:
        registry = _find_registry(project)
        sites = list(_emit_sites(project))
        if registry is None:
            if sites:
                module, node, _ = sites[0]
                yield Finding(
                    code=self.code,
                    message=(
                        "trace events are emitted but no obs/registry.py exists "
                        "in the scanned tree"
                    ),
                    path=module.rel_path,
                    line=node.lineno,
                )
            return
        known = _dict_keys(registry, "TRACE_EVENTS")
        for module, node, value in sites:
            if value not in known:
                yield Finding(
                    code=self.code,
                    message=(
                        f"trace event {value!r} is not in TRACE_EVENTS "
                        f"({registry.rel_path}); register it with a description"
                    ),
                    path=module.rel_path,
                    line=node.lineno,
                    col=node.col_offset,
                )


@register
class DeadRegistryEntryRule(Rule):
    code = "REG003"
    name = "dead-registry-entry"
    description = (
        "registry entries no call site emits any more are drift; drop them "
        "or restore the instrumentation"
    )

    def check_project(self, project: Project) -> Iterator[Finding]:
        registry = _find_registry(project)
        if registry is None:
            return
        emitted = {value for _, _, value in _emit_sites(project)}
        for name, line in sorted(_dict_keys(registry, "TRACE_EVENTS").items()):
            if name not in emitted:
                yield Finding(
                    code=self.code,
                    message=f"TRACE_EVENTS entry {name!r} has no emit() call site",
                    path=registry.rel_path,
                    line=line,
                )
