"""Shared runtime for the Chapter-2 validation approaches.

Compiles :class:`~repro.validation.workload.ConstraintSpec` predicates into
callable check functions, adapts them into the explicit constraint classes
of ``repro.core`` (so the *same* constraint repository implementation is
measured in Chapter 2 and used by the middleware in Chapter 4, as in the
paper), and provides the violation exception and check counting used to
verify that every approach checks exactly the same constraints (§2.3.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

from ..core.metadata import AffectedMethod, ConstraintRegistration
from ..core.model import (
    Constraint,
    ConstraintType,
    ConstraintValidationContext,
)
from ..core.repository import CachingConstraintRepository, ConstraintRepository
from .workload import CONSTRAINT_SPECS, ConstraintSpec

CheckFn = Callable[[Any, tuple[Any, ...], Any, Any], bool]
SnapshotFn = Callable[[Any, tuple[Any, ...]], Any]
ScenarioRunner = Callable[[], dict[str, Any]]


class ViolationError(AssertionError):
    """Raised when a constraint check fails."""

    def __init__(self, spec_name: str, obj: Any = None) -> None:
        super().__init__(f"constraint {spec_name!r} violated on {obj!r}")
        self.spec_name = spec_name


@dataclass
class CheckCounter:
    """Counts performed checks per kind, for cross-approach verification."""

    invariants: int = 0
    preconditions: int = 0
    postconditions: int = 0
    by_name: dict[str, int] = field(default_factory=dict)

    def count(self, spec: ConstraintSpec) -> None:
        if spec.kind == "inv":
            self.invariants += 1
        elif spec.kind == "pre":
            self.preconditions += 1
        else:
            self.postconditions += 1
        self.by_name[spec.name] = self.by_name.get(spec.name, 0) + 1

    @property
    def total(self) -> int:
        return self.invariants + self.preconditions + self.postconditions


def compile_check(spec: ConstraintSpec) -> CheckFn:
    """Compile the spec's Python predicate into a plain function.

    The generated function body is the expression itself, so calling it is
    as close to compiled-in constraint code as Python gets — the analogue
    of a Java constraint class's compiled ``validate`` body.
    """
    source = (
        f"def _check(obj, args, result, pre):\n"
        f"    return bool({spec.expr})\n"
    )
    namespace: dict[str, Any] = {"len": len, "set": set, "map": map, "id": id, "all": all, "any": any}
    exec(source, namespace)  # noqa: S102 - code generated from trusted specs
    return namespace["_check"]


def compile_snapshot(spec: ConstraintSpec) -> SnapshotFn | None:
    """Compile the @pre snapshot expression of a postcondition."""
    if spec.pre_expr is None:
        return None
    source = f"def _snapshot(obj, args):\n    return {spec.pre_expr}\n"
    namespace: dict[str, Any] = {"len": len}
    exec(source, namespace)  # noqa: S102
    return namespace["_snapshot"]


@dataclass
class CompiledSpec:
    """A spec with its compiled predicate and snapshot function."""

    spec: ConstraintSpec
    check: CheckFn
    snapshot: SnapshotFn | None

    @property
    def name(self) -> str:
        return self.spec.name

    def validate(
        self,
        obj: Any,
        args: tuple[Any, ...] = (),
        result: Any = None,
        pre: Any = None,
        counter: CheckCounter | None = None,
    ) -> None:
        if counter is not None:
            counter.count(self.spec)
        if not self.check(obj, args, result, pre):
            raise ViolationError(self.spec.name, obj)


def compile_specs(
    specs: Sequence[ConstraintSpec] = CONSTRAINT_SPECS,
) -> tuple[CompiledSpec, ...]:
    return tuple(
        CompiledSpec(spec, compile_check(spec), compile_snapshot(spec))
        for spec in specs
    )


@dataclass(frozen=True)
class MethodChecks:
    """All checks bound to one (class, method) pair, precomputed."""

    preconditions: tuple[CompiledSpec, ...]
    postconditions: tuple[CompiledSpec, ...]
    invariants: tuple[CompiledSpec, ...]


def checks_by_method(
    compiled: Iterable[CompiledSpec],
) -> dict[tuple[str, str], MethodChecks]:
    """Index compiled specs by their trigger methods."""
    pre: dict[tuple[str, str], list[CompiledSpec]] = {}
    post: dict[tuple[str, str], list[CompiledSpec]] = {}
    inv: dict[tuple[str, str], list[CompiledSpec]] = {}
    for item in compiled:
        for method in item.spec.trigger_methods():
            key = (item.spec.cls, method)
            if item.spec.kind == "pre":
                pre.setdefault(key, []).append(item)
            elif item.spec.kind == "post":
                post.setdefault(key, []).append(item)
            else:
                inv.setdefault(key, []).append(item)
    keys = set(pre) | set(post) | set(inv)
    # sorted(): the mapping's insertion (and therefore iteration) order
    # must not inherit the set's arbitrary order.
    return {
        key: MethodChecks(
            tuple(pre.get(key, ())),
            tuple(post.get(key, ())),
            tuple(inv.get(key, ())),
        )
        for key in sorted(keys)
    }


# ----------------------------------------------------------------------
# explicit constraint classes + repository (the Chapter-4 artefacts)
# ----------------------------------------------------------------------
class SpecConstraint(Constraint):
    """Explicit constraint class wrapping one compiled spec (§2.1.4)."""

    def __init__(self, compiled: CompiledSpec, counter: CheckCounter | None = None) -> None:
        super().__init__(compiled.name)
        spec = compiled.spec
        self.compiled = compiled
        self.counter = counter
        self.constraint_type = {
            "pre": ConstraintType.PRECONDITION,
            "post": ConstraintType.POSTCONDITION,
            "inv": ConstraintType.INVARIANT_HARD,
        }[spec.kind]
        self.context_class = spec.cls

    def before_method_invocation(self, ctx: ConstraintValidationContext) -> None:
        if self.compiled.snapshot is not None:
            ctx.pre_state[self.name] = self.compiled.snapshot(
                ctx.called_object, ctx.method_arguments
            )

    def validate(self, ctx: ConstraintValidationContext) -> bool:
        if self.counter is not None:
            self.counter.count(self.compiled.spec)
        return self.compiled.check(
            ctx.called_object,
            ctx.method_arguments,
            ctx.method_result,
            ctx.pre_state.get(self.name),
        )


def build_repository(
    caching: bool,
    counter: CheckCounter | None = None,
    specs: Sequence[ConstraintSpec] = CONSTRAINT_SPECS,
) -> ConstraintRepository:
    """Register all specs as explicit constraint classes in a repository."""
    repository: ConstraintRepository = (
        CachingConstraintRepository() if caching else ConstraintRepository()
    )
    for compiled in compile_specs(specs):
        constraint = SpecConstraint(compiled, counter)
        affected = tuple(
            AffectedMethod(compiled.spec.cls, method)
            for method in compiled.spec.trigger_methods()
        )
        repository.register(ConstraintRegistration(constraint, affected))
    return repository
