"""Exceptions raised by the constraint consistency middleware (§5.4).

The middleware detects inappropriate situations and signals them through
exceptions; treating the consequences is the application's job.  Exceptions
break the flow of control (Fig. 5.7), which is exactly why *negotiation*
uses callbacks instead — these exceptions are only raised when the decision
is already final (violation, or a threat that was rejected).
"""

from __future__ import annotations

from ..objects import ObjectRef


class ConstraintViolated(RuntimeError):
    """A constraint was violated by a business operation in healthy mode
    (or re-detected during reconciliation)."""

    def __init__(self, constraint_name: str, context_ref: ObjectRef | None = None) -> None:
        where = f" on {context_ref}" if context_ref else ""
        super().__init__(f"constraint {constraint_name!r} violated{where}")
        self.constraint_name = constraint_name
        self.context_ref = context_ref


class ConsistencyThreatRejected(RuntimeError):
    """A consistency threat was not accepted; the operation aborts."""

    def __init__(
        self,
        constraint_name: str,
        degree_name: str,
        mechanism: str = "",
        context_ref: ObjectRef | None = None,
    ) -> None:
        via = f" via {mechanism} negotiation" if mechanism else ""
        super().__init__(
            f"consistency threat for {constraint_name!r} "
            f"({degree_name}) rejected{via}"
        )
        self.constraint_name = constraint_name
        self.degree_name = degree_name
        self.mechanism = mechanism
        self.context_ref = context_ref
