"""Constraint configuration and registration metadata (§4.2.2).

The application developer declares constraints, affected methods, context
preparation, and negotiation metadata in a configuration file (Listing 4.1)
that is read at deployment time and used to register the constraints within
the constraint repository.  This module provides the metadata model, the
context-preparation strategies, and a parser for an XML configuration
format that mirrors the listing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from ..objects import Entity, ObjectRef
from .model import (
    Constraint,
    ConstraintPriority,
    ConstraintScope,
    ConstraintType,
    FreshnessCriterion,
    SatisfactionDegree,
)

if TYPE_CHECKING:  # parse_xml_configuration imports it when a configuration is read
    from xml.etree import ElementTree


class ContextPreparation:
    """Extracts the invariant's context object from an invocation."""

    def extract(self, called_object: Entity) -> Entity | None:
        raise NotImplementedError


class CalledObjectIsContextObject(ContextPreparation):
    """The called object itself is the context object."""

    def extract(self, called_object: Entity) -> Entity | None:
        return called_object


class ReferenceIsContextObject(ContextPreparation):
    """The context object is obtained via a getter on the called object.

    E.g. the context object for ``Alarm.set_alarm_kind`` is reached via
    ``get_repair_report()`` on the called ``Alarm`` (Listing 4.1).
    """

    def __init__(self, getter: str) -> None:
        self.getter = getter

    def extract(self, called_object: Entity) -> Entity | None:
        value = getattr(called_object, self.getter)()
        if value is None:
            return None
        if isinstance(value, Entity):
            return value
        if isinstance(value, ObjectRef):
            return called_object.resolve(value)
        raise TypeError(
            f"{self.getter}() returned {type(value).__name__}, expected a "
            "reference or entity"
        )


class NoContextObject(ContextPreparation):
    """Query-based constraints need no context object (§3.2.2 case 2)."""

    def extract(self, called_object: Entity) -> Entity | None:
        return None


@dataclass(frozen=True)
class AffectedMethod:
    """One method whose invocation must trigger the constraint (§1.6)."""

    class_name: str
    method_name: str
    preparation: ContextPreparation = field(
        default_factory=CalledObjectIsContextObject, compare=False, hash=False
    )

    @property
    def key(self) -> tuple[str, str]:
        return (self.class_name, self.method_name)


@dataclass
class ConstraintRegistration:
    """A constraint plus its trigger metadata, as held by the repository."""

    constraint: Constraint
    affected_methods: tuple[AffectedMethod, ...] = ()

    @property
    def name(self) -> str:
        return self.constraint.name

    def preparation_for(self, class_name: str, method_name: str) -> ContextPreparation:
        for affected in self.affected_methods:
            if affected.key == (class_name, method_name):
                return affected.preparation
        return CalledObjectIsContextObject()


_TYPE_NAMES: Mapping[str, ConstraintType] = {
    "PRE": ConstraintType.PRECONDITION,
    "PRECONDITION": ConstraintType.PRECONDITION,
    "POST": ConstraintType.POSTCONDITION,
    "POSTCONDITION": ConstraintType.POSTCONDITION,
    "HARD": ConstraintType.INVARIANT_HARD,
    "SOFT": ConstraintType.INVARIANT_SOFT,
    "ASYNC": ConstraintType.INVARIANT_ASYNC,
}

_PRIORITY_NAMES: Mapping[str, ConstraintPriority] = {
    "CRITICAL": ConstraintPriority.CRITICAL,
    "NON-TRADEABLE": ConstraintPriority.CRITICAL,
    "RELAXABLE": ConstraintPriority.RELAXABLE,
    "TRADEABLE": ConstraintPriority.RELAXABLE,
}

_DEGREE_NAMES: Mapping[str, SatisfactionDegree] = {
    "VIOLATED": SatisfactionDegree.VIOLATED,
    "UNCHECKABLE": SatisfactionDegree.UNCHECKABLE,
    "POSSIBLY_VIOLATED": SatisfactionDegree.POSSIBLY_VIOLATED,
    "POSSIBLY_SATISFIED": SatisfactionDegree.POSSIBLY_SATISFIED,
    "SATISFIED": SatisfactionDegree.SATISFIED,
}

_SCOPE_NAMES: Mapping[str, ConstraintScope] = {
    "INTRA-OBJECT": ConstraintScope.INTRA_OBJECT,
    "INTRA": ConstraintScope.INTRA_OBJECT,
    "INTER-OBJECT": ConstraintScope.INTER_OBJECT,
    "INTER": ConstraintScope.INTER_OBJECT,
}


class ConfigurationError(ValueError):
    """Raised for malformed constraint configuration."""


def _lookup(table: Mapping[str, Any], value: str, what: str) -> Any:
    key = value.strip().upper()
    if key not in table:
        raise ConfigurationError(f"unknown {what} {value!r}")
    return table[key]


def _build_preparation(spec: Mapping[str, Any] | None) -> ContextPreparation:
    if spec is None:
        return CalledObjectIsContextObject()
    kind = spec.get("class", "CalledObjectIsContextObject")
    params = spec.get("params", {})
    if kind == "CalledObjectIsContextObject":
        return CalledObjectIsContextObject()
    if kind == "ReferenceIsContextObject":
        getter = params.get("getter")
        if not getter:
            raise ConfigurationError(
                "ReferenceIsContextObject requires a 'getter' parameter"
            )
        return ReferenceIsContextObject(getter)
    if kind == "NoContextObject":
        return NoContextObject()
    raise ConfigurationError(f"unknown preparation class {kind!r}")


def registration_from_dict(
    spec: Mapping[str, Any],
    constraint_classes: Mapping[str, type[Constraint]],
) -> ConstraintRegistration:
    """Build a registration from a dict-shaped configuration entry.

    Expected keys mirror Listing 4.1: ``name``, ``class``, ``type``,
    ``priority``, ``min_satisfaction_degree``, ``context_class``,
    ``context_object`` (bool), ``scope``, ``freshness`` (list of
    ``{"class": ..., "max_age": ...}``) and ``affected_methods`` (list of
    ``{"class": ..., "method": ..., "preparation": {...}}``).
    """
    class_name = spec.get("class")
    if not class_name:
        raise ConfigurationError("constraint entry missing 'class'")
    if class_name not in constraint_classes:
        raise ConfigurationError(f"unknown constraint class {class_name!r}")
    constraint = constraint_classes[class_name](spec.get("name"))
    if "type" in spec:
        constraint.constraint_type = _lookup(_TYPE_NAMES, spec["type"], "constraint type")
    if "priority" in spec:
        constraint.priority = _lookup(_PRIORITY_NAMES, spec["priority"], "priority")
    if "min_satisfaction_degree" in spec:
        constraint.min_satisfaction_degree = _lookup(
            _DEGREE_NAMES, spec["min_satisfaction_degree"], "satisfaction degree"
        )
    if "scope" in spec:
        constraint.scope = _lookup(_SCOPE_NAMES, spec["scope"], "scope")
    if "context_class" in spec:
        constraint.context_class = spec["context_class"]
    if "context_object" in spec:
        constraint.context_object_needed = bool(spec["context_object"])
    if "description" in spec:
        constraint.description = spec["description"]
    if "freshness" in spec:
        constraint.freshness_criteria = tuple(
            FreshnessCriterion(entry["class"], int(entry["max_age"]))
            for entry in spec["freshness"]
        )
    affected: list[AffectedMethod] = []
    for entry in spec.get("affected_methods", []):
        affected.append(
            AffectedMethod(
                class_name=entry["class"],
                method_name=entry["method"],
                preparation=_build_preparation(entry.get("preparation")),
            )
        )
    return ConstraintRegistration(constraint, tuple(affected))


def parse_xml_configuration(
    xml_text: str,
    constraint_classes: Mapping[str, type[Constraint]],
) -> list[ConstraintRegistration]:
    """Parse an XML configuration in the shape of Listing 4.1."""
    from xml.etree import ElementTree

    try:
        root = ElementTree.fromstring(xml_text)
    except ElementTree.ParseError as exc:
        raise ConfigurationError(f"malformed XML: {exc}") from exc
    if root.tag == "constraint":
        elements: Sequence[ElementTree.Element] = [root]
    else:
        elements = root.findall("constraint")
    registrations = []
    for element in elements:
        registrations.append(_registration_from_xml(element, constraint_classes))
    return registrations


def _registration_from_xml(
    element: ElementTree.Element,
    constraint_classes: Mapping[str, type[Constraint]],
) -> ConstraintRegistration:
    spec: dict[str, Any] = {}
    if element.get("name"):
        spec["name"] = element.get("name")
    if element.get("type"):
        spec["type"] = element.get("type")
    if element.get("priority"):
        spec["priority"] = element.get("priority")
    if element.get("minSatisfactionDegree"):
        spec["min_satisfaction_degree"] = element.get("minSatisfactionDegree")
    if element.get("contextObject"):
        spec["context_object"] = element.get("contextObject", "").upper() in ("Y", "YES", "TRUE")
    if element.get("scope"):
        spec["scope"] = element.get("scope")
    class_element = element.find("class")
    if class_element is None or not (class_element.text or "").strip():
        raise ConfigurationError("constraint element missing <class>")
    spec["class"] = class_element.text.strip()
    context_class = element.find("context-class")
    if context_class is not None and (context_class.text or "").strip():
        spec["context_class"] = context_class.text.strip()
    freshness = []
    for criterion in element.findall("freshness-criterion"):
        freshness.append(
            {
                "class": criterion.get("class", ""),
                "max_age": int(criterion.get("maxAge", "0")),
            }
        )
    if freshness:
        spec["freshness"] = freshness
    affected = []
    methods_element = element.find("affected-methods")
    if methods_element is not None:
        for method_element in methods_element.findall("affected-method"):
            object_method = method_element.find("objectMethod")
            if object_method is None:
                raise ConfigurationError("affected-method missing <objectMethod>")
            object_class = object_method.find("objectClass")
            if object_class is None or not (object_class.text or "").strip():
                raise ConfigurationError("objectMethod missing <objectClass>")
            entry: dict[str, Any] = {
                "class": object_class.text.strip(),
                "method": object_method.get("name", ""),
            }
            preparation = method_element.find("context-preparation")
            if preparation is not None:
                preparation_class = preparation.find("preparation-class")
                params: dict[str, str] = {}
                params_element = preparation.find("params")
                if params_element is not None:
                    for param in params_element.findall("param"):
                        params[param.get("name", "")] = param.get("value", "")
                entry["preparation"] = {
                    "class": (preparation_class.text or "").strip()
                    if preparation_class is not None
                    else "CalledObjectIsContextObject",
                    "params": params,
                }
            affected.append(entry)
    spec["affected_methods"] = affected
    return registration_from_dict(spec, constraint_classes)
