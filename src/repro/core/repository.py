"""Constraint repository (§2.1.4, §4.2.2).

All constraints of an application are registered here and can be queried by
class, method signature, and constraint type.  Constraints can be added,
removed, enabled and disabled during runtime — the flexibility that
motivates explicit runtime constraints in the first place.

Three lookup strategies reproduce (and extend) the Chapter-2 finding that
repository search dominates interception cost:

* :class:`ConstraintRepository` — linear scan per query ("constraint
  repository with search per invocation").
* :class:`CachingConstraintRepository` — an optimized repository caching
  query results in a hash table keyed by (class, method, constraint type);
  a repeat query reduces to a single dict lookup (§2.2.1), measured at
  0.25–0.52 µs in the paper and size-independent.
* :class:`CompiledConstraintRepository` — the throughput-engine variant: a
  dispatch table precomputed on every registration change (via the §6.3
  ``on_change`` hook) groups each method's registrations by constraint
  type, so one lookup answers every constraint type.

The consistency manager has one query, whatever the strategy:
:meth:`~ConstraintRepository.method_dispatch` hands it a
:class:`MethodDispatch` per notification and it asks that for the
registrations of each constraint type.  ``affected_constraints`` is the
per-type primitive underneath — the Chapter-2 study code calls it
directly, and the linear strategy answers a dispatch by calling it on
demand.  The caching strategy's view answers a cached question with one
subscript of the repository's cache, which it holds (a change clears the
cache in place), under a cache key it built with the view, and calls
``affected_constraints`` only on the first question after a change.
Either way every ``repository_search`` / ``repository_lookup_cached``
charge lands where the manager asks.

All three stay runtime-mutable: constraints can be added, removed, enabled
and disabled at any time, and ``enabled`` is honoured at query time so
even direct toggles on the :class:`Constraint` object are picked up
immediately.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Sequence

from ..obs import ensure_obs
from .model import Constraint, ConstraintType
from .metadata import AffectedMethod, ConstraintRegistration

ChargeFn = Callable[[str], None]


class MethodDispatch:
    """A repository's answer for one ``(class_name, method_name)``.

    This is the precomputed form the compiled repository keeps in its
    table; the other strategies subclass it with a query-on-demand view.
    Registrations are grouped by :class:`ConstraintType` at table-build
    time; ``enabled`` is evaluated at access time so a constraint toggled
    directly on the :class:`Constraint` object (bypassing the repository's
    ``enable``/``disable``) is still honoured without a rebuild.
    """

    __slots__ = ("key", "_by_type", "_all")

    def __init__(
        self,
        key: tuple[str, str],
        by_type: dict[ConstraintType, tuple[ConstraintRegistration, ...]],
        all_registrations: tuple[ConstraintRegistration, ...],
    ) -> None:
        self.key = key
        self._by_type = by_type
        self._all = all_registrations

    def registrations(
        self, constraint_type: ConstraintType | None = None
    ) -> Sequence[ConstraintRegistration]:
        """The enabled registrations of one type (all types for ``None``)."""
        entries = self._all if constraint_type is None else self._by_type.get(
            constraint_type, ()
        )
        return tuple(
            registration
            for registration in entries
            if registration.constraint.enabled
        )

    def __len__(self) -> int:
        return len(self._all)


#: Shared entry for methods without any registered constraint.
_EMPTY_DISPATCH = MethodDispatch(("", ""), {}, ())


class _QueriedDispatch(MethodDispatch):
    """Stateless view for repositories that answer per constraint type.

    Every question becomes an ``affected_constraints`` query at the moment
    it is asked, so the repository's per-query charges keep their order
    and simulated instant.  It holds only the repository and the key and
    therefore never needs invalidating.
    """

    __slots__ = ("_repository",)

    def __init__(self, repository: "ConstraintRepository", key: tuple[str, str]) -> None:
        self.key = key
        self._repository = repository

    def registrations(
        self, constraint_type: ConstraintType | None = None
    ) -> Sequence[ConstraintRegistration]:
        # Unpacked, not ``*self.key``: a star call is ≈ 3x the cost here.
        class_name, method_name = self.key
        return self._repository.affected_constraints(
            class_name, method_name, constraint_type
        )

    def __len__(self) -> int:
        return len(self._repository._search(*self.key, None, only_enabled=False))


class _CachedDispatch(_QueriedDispatch):
    """The caching repository's view.  It holds the repository's cache
    (cleared in place on every change), one prebuilt cache key per
    constraint type and the repository's charge, so a question whose
    answer is cached is one subscript plus the ``repository_lookup_cached``
    charge ``affected_constraints`` would make; a question after a change
    goes on to ``affected_constraints``, which searches and charges
    ``repository_search``."""

    __slots__ = ("_cache", "_keys", "_charge")

    def __init__(self, repository: "CachingConstraintRepository", key: tuple[str, str]) -> None:
        super().__init__(repository, key)
        self._cache = repository._cache
        self._keys = {kind: (*key, kind) for kind in (None, *ConstraintType)}
        self._charge = repository._charge

    def registrations(
        self, constraint_type: ConstraintType | None = None
    ) -> Sequence[ConstraintRegistration]:
        key = self._keys[constraint_type]
        try:
            cached = self._cache[key]
        except KeyError:
            return self._repository.affected_constraints(*key)
        if self._charge is not None:
            self._charge("repository_lookup_cached")
        if not cached:
            return ()
        return [registration for registration in cached if registration.constraint.enabled]


class ConstraintRepository:
    """Linear-search repository of constraint registrations."""

    #: The per-method view :meth:`method_dispatch` hands out.
    _view: type[_QueriedDispatch] = _QueriedDispatch

    def __init__(self, charge: ChargeFn | None = None) -> None:
        self._registrations: list[ConstraintRegistration] = []
        self._by_name: dict[str, ConstraintRegistration] = {}
        self._charge = charge
        self._listeners: list[Callable[[], None]] = []
        self._views: dict[tuple[str, str], MethodDispatch] = {}

    def on_change(self, listener: Callable[[], None]) -> None:
        """Register a callback fired whenever the registration set or an
        enable/disable state changes.

        Adaptive instrumentation (§6.3) uses this to re-instrument
        affected methods instead of searching the repository per call.
        """
        self._listeners.append(listener)

    # ------------------------------------------------------------------
    # runtime management
    # ------------------------------------------------------------------
    def register(self, registration: ConstraintRegistration) -> None:
        """Register a constraint; names must be application-unique (§5.3)."""
        name = registration.name
        if name in self._by_name:
            raise KeyError(f"constraint {name!r} already registered")
        self._registrations.append(registration)
        self._by_name[name] = registration
        self._invalidate()

    def register_constraint(
        self,
        constraint: Constraint,
        affected_methods: Iterable[AffectedMethod] = (),
    ) -> ConstraintRegistration:
        registration = ConstraintRegistration(constraint, tuple(affected_methods))
        self.register(registration)
        return registration

    def remove(self, name: str) -> ConstraintRegistration:
        if name not in self._by_name:
            raise KeyError(f"constraint {name!r} not registered")
        registration = self._by_name.pop(name)
        self._registrations.remove(registration)
        self._invalidate()
        return registration

    def enable(self, name: str) -> None:
        self.by_name(name).constraint.enabled = True
        self._invalidate()

    def disable(self, name: str) -> None:
        """Disable a constraint at runtime (e.g. to relax consistency,
        §3.3)."""
        self.by_name(name).constraint.enabled = False
        self._invalidate()

    def by_name(self, name: str) -> ConstraintRegistration:
        if name not in self._by_name:
            raise KeyError(f"constraint {name!r} not registered")
        return self._by_name[name]

    def knows(self, name: str) -> bool:
        return name in self._by_name

    def all_registrations(self) -> list[ConstraintRegistration]:
        return list(self._registrations)

    def __len__(self) -> int:
        return len(self._registrations)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def affected_constraints(
        self,
        class_name: str,
        method_name: str,
        constraint_type: ConstraintType | None = None,
    ) -> list[ConstraintRegistration]:
        """Constraints triggered by an invocation of the given method."""
        if self._charge is not None:
            self._charge("repository_search")
        return self._search(class_name, method_name, constraint_type)

    def method_dispatch(self, class_name: str, method_name: str) -> MethodDispatch:
        """The consistency manager's one query: everything registered for
        an invocation of the given method, grouped by constraint type.

        This strategy (and the caching one) hands out one memoised view
        per method that asks ``affected_constraints`` per question (the
        caching one's view answers a cached question itself).
        """
        key = (class_name, method_name)
        view = self._views.get(key)
        if view is None:
            view = self._views[key] = self._view(self, key)
        return view

    def invariants(self) -> list[ConstraintRegistration]:
        """All enabled invariant constraints (reconciliation uses these)."""
        return [
            registration
            for registration in self._registrations
            if registration.constraint.enabled
            and registration.constraint.constraint_type.is_invariant
        ]

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _search(
        self,
        class_name: str,
        method_name: str,
        constraint_type: ConstraintType | None,
        only_enabled: bool = True,
    ) -> list[ConstraintRegistration]:
        matches = []
        for registration in self._registrations:
            constraint = registration.constraint
            if only_enabled and not constraint.enabled:
                continue
            if constraint_type is not None and constraint.constraint_type is not constraint_type:
                continue
            for affected in registration.affected_methods:
                if affected.key == (class_name, method_name):
                    matches.append(registration)
                    break
        return matches

    def _invalidate(self) -> None:
        """Hook for caching subclasses; notifies change listeners."""
        for listener in self._listeners:
            listener()


class CachingConstraintRepository(ConstraintRepository):
    """Optimized repository: query results cached in a hash table.

    The cache key combines class, method, and constraint type (§2.2.1).
    Registration changes invalidate the cache.  Cached lists hold every
    *matching* registration regardless of its enabled state; ``enabled``
    is re-checked per query, so a constraint toggled directly on the
    :class:`Constraint` object (bypassing ``enable``/``disable`` and hence
    the invalidation hook) never yields stale results.
    """

    _view = _CachedDispatch

    def __init__(self, charge: ChargeFn | None = None) -> None:
        super().__init__(charge)
        self._cache: dict[
            tuple[str, str, ConstraintType | None], list[ConstraintRegistration]
        ] = {}

    def affected_constraints(
        self,
        class_name: str,
        method_name: str,
        constraint_type: ConstraintType | None = None,
    ) -> list[ConstraintRegistration]:
        key = (class_name, method_name, constraint_type)
        cached = self._cache.get(key)
        if cached is None:
            if self._charge is not None:
                self._charge("repository_search")
            cached = self._search(
                class_name, method_name, constraint_type, only_enabled=False
            )
            self._cache[key] = cached
        elif self._charge is not None:
            self._charge("repository_lookup_cached")
        if not cached:
            return []
        return [
            registration
            for registration in cached
            if registration.constraint.enabled
        ]

    def _invalidate(self) -> None:
        self._cache.clear()
        super()._invalidate()


class CompiledConstraintRepository(ConstraintRepository):
    """Throughput-engine repository: one precomputed dispatch table.

    On every registration change (the same §6.3 ``on_change`` trigger the
    adaptive instrumentation uses) the table is marked dirty and rebuilt
    lazily on the next lookup: per ``(class_name, method_name)`` one
    :class:`MethodDispatch` grouping the affected registrations by
    constraint type.  A per-invocation lookup is then a single dict access
    (charged as ``repository_dispatch``), independent of both repository
    size and the number of constraint types queried.

    The compiled table stays a drop-in component behind the same repository
    interface — ``affected_constraints`` is answered from the table, and
    runtime ``register``/``remove``/``enable``/``disable`` work unchanged.
    """

    def __init__(self, charge: ChargeFn | None = None, obs: Any = None) -> None:
        super().__init__(charge)
        self.obs = ensure_obs(obs)
        self._table: dict[tuple[str, str], MethodDispatch] | None = None
        self.rebuilds = 0

    def method_dispatch(self, class_name: str, method_name: str) -> MethodDispatch:
        if self._charge is not None:
            self._charge("repository_dispatch")
        table = self._table
        if table is None:
            table = self._rebuild()
        return table.get((class_name, method_name), _EMPTY_DISPATCH)

    def affected_constraints(
        self,
        class_name: str,
        method_name: str,
        constraint_type: ConstraintType | None = None,
    ) -> list[ConstraintRegistration]:
        return list(
            self.method_dispatch(class_name, method_name).registrations(constraint_type)
        )

    def _invalidate(self) -> None:
        self._table = None
        super()._invalidate()

    def _rebuild(self) -> dict[tuple[str, str], MethodDispatch]:
        grouped: dict[
            tuple[str, str], dict[ConstraintType, list[ConstraintRegistration]]
        ] = {}
        ordered: dict[tuple[str, str], list[ConstraintRegistration]] = {}
        for registration in self._registrations:
            constraint_type = registration.constraint.constraint_type
            seen: set[tuple[str, str]] = set()
            for affected in registration.affected_methods:
                key = affected.key
                if key in seen:
                    # A registration listing the same method twice still
                    # triggers once, matching the linear search.
                    continue
                seen.add(key)
                grouped.setdefault(key, {}).setdefault(constraint_type, []).append(
                    registration
                )
                ordered.setdefault(key, []).append(registration)
        table = {
            key: MethodDispatch(
                key,
                {
                    constraint_type: tuple(registrations)
                    for constraint_type, registrations in by_type.items()
                },
                tuple(ordered[key]),
            )
            for key, by_type in grouped.items()
        }
        self._table = table
        self.rebuilds += 1
        if self.obs.enabled:
            self.obs.emit(
                "repository_dispatch",
                methods=len(table),
                registrations=len(self._registrations),
            )
        return table
