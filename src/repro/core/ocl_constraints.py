"""OCL-defined runtime constraints (§1.5, §6.3 future-work direction).

The dissertation's constraints are specified as OCL expressions at design
time (Fig. 1.6) and implemented manually as constraint classes; §6.3
points to model-driven generation of the constraint classes and metadata
(following Verheecke & Van Der Straeten).  This module closes that gap for
the reproduction: an OCL invariant written against the entity model is
turned directly into an explicit runtime constraint —

    constraint = ocl_invariant(
        "TicketConstraint", "Flight", "self.sold <= self.seats",
        priority=ConstraintPriority.RELAXABLE,
    )

The OCL AST is translated once into Python source and compiled, giving
near-handwritten validation speed.  The Dresden-OCL-style interpreter of
:mod:`repro.validation.ocl`, which walks the AST per evaluation, stays
the Chapter-2 approach and the reference the compiled form is checked
against (``tests/test_ocl_equivalence.py``).

The entity model is bridged by an adapter giving OCL expressions natural
attribute access (``self.sold``) over :class:`~repro.objects.Entity`
attribute dictionaries, with reference fields resolved through the entity
(so inter-object constraints navigate replicas exactly like handwritten
``validate`` methods do, including staleness tracking).
"""

from __future__ import annotations

from typing import Any

from ..objects import Entity, ObjectRef
from ..validation.ocl import (
    Attribute,
    Binary,
    CollectionOp,
    Conditional,
    Literal,
    MethodCall,
    Name,
    Node,
    OclError,
    Unary,
    parse,
)
from .model import (
    Constraint,
    ConstraintPriority,
    ConstraintScope,
    ConstraintType,
    ConstraintUncheckable,
    ConstraintValidationContext,
    SatisfactionDegree,
)


class OclEntityAdapter:
    """Presents an :class:`Entity` to the OCL evaluator.

    Attribute access reads the entity's fields through ``_get`` (so the
    CCMgr's object-access tracking sees every touched object);
    reference-valued fields (:class:`ObjectRef`) are resolved through the
    entity's container and wrapped again, letting OCL expressions navigate
    the object graph: ``self.peer.frequency``.
    """

    __slots__ = ("_entity",)

    def __init__(self, entity: Entity) -> None:
        object.__setattr__(self, "_entity", entity)

    def __getattr__(self, name: str) -> Any:
        entity: Entity = object.__getattribute__(self, "_entity")
        if name in type(entity).fields:
            value = entity._get(name)
            return _wrap(entity, value)
        # fall back to entity API (e.g. get_version, oid)
        return getattr(entity, name)

    def __eq__(self, other: object) -> bool:
        mine: Entity = object.__getattribute__(self, "_entity")
        if isinstance(other, OclEntityAdapter):
            other = object.__getattribute__(other, "_entity")
        if isinstance(other, Entity):
            return mine.ref == other.ref
        return NotImplemented

    def __hash__(self) -> int:
        return hash(object.__getattribute__(self, "_entity").ref)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"OclEntityAdapter({object.__getattribute__(self, '_entity')!r})"


def _wrap(owner: Entity, value: Any) -> Any:
    if isinstance(value, ObjectRef):
        resolved = owner.resolve(value)
        return OclEntityAdapter(resolved) if resolved is not None else None
    if isinstance(value, Entity):
        return OclEntityAdapter(value)
    if isinstance(value, (list, tuple)):
        return [_wrap(owner, item) for item in value]
    return value


# ----------------------------------------------------------------------
# AST → Python source translation
# ----------------------------------------------------------------------
_BINARY_SOURCE = {
    "+": "+", "-": "-", "*": "*", "/": "/",
    "<": "<", "<=": "<=", ">": ">", ">=": ">=",
    "=": "==", "<>": "!=",
    "and": "and", "or": "or",
}


def translate(node: Node) -> str:
    """Translate an OCL AST into a Python expression string."""
    if isinstance(node, Literal):
        return repr(node.value)
    if isinstance(node, Name):
        return node.name
    if isinstance(node, Attribute):
        return f"{translate(node.target)}.{node.name}"
    if isinstance(node, MethodCall):
        arguments = ", ".join(translate(argument) for argument in node.arguments)
        return f"{translate(node.target)}.{node.name}({arguments})"
    if isinstance(node, Unary):
        operator = "not " if node.operator == "not" else "-"
        return f"({operator}{translate(node.operand)})"
    if isinstance(node, Binary):
        if node.operator == "implies":
            return f"((not ({translate(node.left)})) or ({translate(node.right)}))"
        operator = _BINARY_SOURCE[node.operator]
        return f"({translate(node.left)} {operator} {translate(node.right)})"
    if isinstance(node, Conditional):
        return (
            f"({translate(node.then_branch)} if {translate(node.condition)}"
            f" else {translate(node.else_branch)})"
        )
    if isinstance(node, CollectionOp):
        target = translate(node.target)
        if node.operation == "size":
            return f"len({target})"
        if node.operation == "isEmpty":
            return f"(len({target}) == 0)"
        if node.operation == "notEmpty":
            return f"(len({target}) > 0)"
        if node.operation == "sum":
            return f"sum({target})"
        if node.operation == "includes":
            assert node.argument is not None
            return f"({translate(node.argument)} in {target})"
        assert node.variable is not None and node.body is not None
        body = translate(node.body)
        variable = node.variable
        if node.operation == "forAll":
            return f"all(({body}) for {variable} in {target})"
        if node.operation == "exists":
            return f"any(({body}) for {variable} in {target})"
        if node.operation == "select":
            return f"[{variable} for {variable} in {target} if ({body})]"
        if node.operation == "reject":
            return f"[{variable} for {variable} in {target} if not ({body})]"
        if node.operation == "collect":
            return f"[({body}) for {variable} in {target}]"
    raise OclError(f"cannot translate node {node!r}")


def compile_ocl(text: str) -> Any:
    """Compile an OCL expression into ``fn(self) -> bool``."""
    source = translate(parse(text))
    namespace: dict[str, Any] = {"len": len, "sum": sum, "all": all, "any": any}
    exec(  # noqa: S102 - source generated from a parsed, trusted expression
        f"def _ocl_check(self):\n    return bool({source})\n", namespace
    )
    return namespace["_ocl_check"]


class OclConstraint(Constraint):
    """An invariant constraint defined by an OCL expression."""

    def __init__(
        self,
        name: str,
        context_class: str,
        expression: str,
        constraint_type: ConstraintType = ConstraintType.INVARIANT_HARD,
        priority: ConstraintPriority = ConstraintPriority.CRITICAL,
        scope: ConstraintScope = ConstraintScope.INTER_OBJECT,
        min_satisfaction_degree: SatisfactionDegree = SatisfactionDegree.SATISFIED,
        description: str = "",
    ) -> None:
        super().__init__(name)
        if not constraint_type.is_invariant:
            raise ValueError("OCL constraints support invariants only")
        self.expression = expression
        self.context_class = context_class
        self.constraint_type = constraint_type
        self.priority = priority
        self.scope = scope
        self.min_satisfaction_degree = min_satisfaction_degree
        self.description = description or f"OCL: {expression}"
        self._compiled = compile_ocl(expression)

    def validate(self, ctx: ConstraintValidationContext) -> bool:
        adapter = OclEntityAdapter(ctx.get_context_object())
        try:
            return bool(self._compiled(adapter))
        except AttributeError as exc:
            raise OclError(f"{self.name}: {exc}") from exc
        except ConstraintUncheckable:
            raise


def ocl_invariant(
    name: str,
    context_class: str,
    expression: str,
    **options: Any,
) -> OclConstraint:
    """Convenience factory for OCL-defined invariant constraints."""
    return OclConstraint(name, context_class, expression, **options)
