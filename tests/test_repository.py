"""Tests for the constraint repository (plain, caching, and compiled)."""

import pytest
from hypothesis import given, strategies as st

from repro.core import (
    CachingConstraintRepository,
    CompiledConstraintRepository,
    ConstraintPriority,
    ConstraintRepository,
    ConstraintType,
    PredicateConstraint,
)
from repro.core.metadata import AffectedMethod, ConstraintRegistration


def make_registration(
    name,
    cls="Flight",
    method="sell",
    ctype=ConstraintType.INVARIANT_HARD,
    priority=ConstraintPriority.CRITICAL,
):
    constraint = PredicateConstraint(
        name, lambda ctx: True, constraint_type=ctype, priority=priority
    )
    return ConstraintRegistration(constraint, (AffectedMethod(cls, method),))


@pytest.fixture(
    params=[
        ConstraintRepository,
        CachingConstraintRepository,
        CompiledConstraintRepository,
    ]
)
def repository(request):
    return request.param()


class TestRegistration:
    def test_register_and_lookup(self, repository):
        repository.register(make_registration("c1"))
        matches = repository.affected_constraints("Flight", "sell")
        assert [m.name for m in matches] == ["c1"]

    def test_duplicate_name_rejected(self, repository):
        repository.register(make_registration("c1"))
        with pytest.raises(KeyError):
            repository.register(make_registration("c1"))

    def test_by_name(self, repository):
        registration = make_registration("c1")
        repository.register(registration)
        assert repository.by_name("c1") is registration
        assert repository.knows("c1")
        assert not repository.knows("ghost")

    def test_by_name_missing(self, repository):
        with pytest.raises(KeyError):
            repository.by_name("ghost")

    def test_remove(self, repository):
        repository.register(make_registration("c1"))
        repository.remove("c1")
        assert len(repository) == 0
        assert repository.affected_constraints("Flight", "sell") == []

    def test_remove_missing(self, repository):
        with pytest.raises(KeyError):
            repository.remove("ghost")

    def test_register_constraint_helper(self, repository):
        constraint = PredicateConstraint("c9", lambda ctx: True)
        registration = repository.register_constraint(
            constraint, [AffectedMethod("X", "m")]
        )
        assert registration.constraint is constraint
        assert repository.affected_constraints("X", "m")[0].name == "c9"


class TestQueries:
    def test_lookup_by_method(self, repository):
        repository.register(make_registration("c1", method="sell"))
        repository.register(make_registration("c2", method="cancel"))
        assert [m.name for m in repository.affected_constraints("Flight", "sell")] == ["c1"]

    def test_lookup_by_class(self, repository):
        repository.register(make_registration("c1", cls="Flight"))
        repository.register(make_registration("c2", cls="Person"))
        assert [m.name for m in repository.affected_constraints("Person", "sell")] == ["c2"]

    def test_lookup_by_type(self, repository):
        repository.register(make_registration("inv", ctype=ConstraintType.INVARIANT_HARD))
        repository.register(make_registration("pre", ctype=ConstraintType.PRECONDITION))
        matches = repository.affected_constraints(
            "Flight", "sell", ConstraintType.PRECONDITION
        )
        assert [m.name for m in matches] == ["pre"]

    def test_lookup_without_type_returns_all(self, repository):
        repository.register(make_registration("inv", ctype=ConstraintType.INVARIANT_HARD))
        repository.register(make_registration("pre", ctype=ConstraintType.PRECONDITION))
        assert len(repository.affected_constraints("Flight", "sell")) == 2

    def test_no_match(self, repository):
        repository.register(make_registration("c1"))
        assert repository.affected_constraints("Flight", "unknown") == []

    def test_invariants_query(self, repository):
        repository.register(make_registration("inv", ctype=ConstraintType.INVARIANT_SOFT))
        repository.register(make_registration("pre", ctype=ConstraintType.PRECONDITION))
        assert [m.name for m in repository.invariants()] == ["inv"]


class TestRuntimeManagement:
    def test_disable_hides_constraint(self, repository):
        repository.register(make_registration("c1"))
        repository.disable("c1")
        assert repository.affected_constraints("Flight", "sell") == []

    def test_enable_restores(self, repository):
        repository.register(make_registration("c1"))
        repository.disable("c1")
        repository.enable("c1")
        assert len(repository.affected_constraints("Flight", "sell")) == 1

    def test_disabled_not_in_invariants(self, repository):
        repository.register(make_registration("c1"))
        repository.disable("c1")
        assert repository.invariants() == []

    def test_add_at_runtime_visible(self, repository):
        # Queries must see registrations made after earlier queries — the
        # whole point of explicit runtime constraints.
        repository.register(make_registration("c1"))
        repository.affected_constraints("Flight", "sell")
        repository.register(make_registration("c2"))
        assert len(repository.affected_constraints("Flight", "sell")) == 2


class TestCachingBehaviour:
    def test_cache_populated_on_first_query(self):
        repository = CachingConstraintRepository()
        repository.register(make_registration("c1"))
        assert len(repository._cache) == 0
        repository.affected_constraints("Flight", "sell")
        assert len(repository._cache) == 1

    def test_cached_result_is_copy(self):
        repository = CachingConstraintRepository()
        repository.register(make_registration("c1"))
        first = repository.affected_constraints("Flight", "sell")
        first.append("junk")  # type: ignore[arg-type]
        second = repository.affected_constraints("Flight", "sell")
        assert len(second) == 1

    def test_cache_invalidated_on_register(self):
        repository = CachingConstraintRepository()
        repository.register(make_registration("c1"))
        repository.affected_constraints("Flight", "sell")
        repository.register(make_registration("c2"))
        assert len(repository._cache) == 0

    def test_cache_invalidated_on_disable(self):
        repository = CachingConstraintRepository()
        repository.register(make_registration("c1"))
        repository.affected_constraints("Flight", "sell")
        repository.disable("c1")
        assert repository.affected_constraints("Flight", "sell") == []

    def test_charge_function_called(self):
        charges = []
        repository = CachingConstraintRepository(charge=charges.append)
        repository.register(make_registration("c1"))
        repository.affected_constraints("Flight", "sell")
        repository.affected_constraints("Flight", "sell")
        assert charges == ["repository_search", "repository_lookup_cached"]

    def test_plain_repository_always_searches(self):
        charges = []
        repository = ConstraintRepository(charge=charges.append)
        repository.register(make_registration("c1"))
        repository.affected_constraints("Flight", "sell")
        repository.affected_constraints("Flight", "sell")
        assert charges == ["repository_search", "repository_search"]

    def test_direct_enabled_toggle_not_served_stale(self):
        # Regression: flipping ``constraint.enabled`` on the Constraint
        # object directly bypasses enable()/disable() and therefore the
        # cache-invalidation hook.  A cached (pre-toggle) query result
        # must not resurrect the disabled constraint.
        repository = CachingConstraintRepository()
        registration = make_registration("c1")
        repository.register(registration)
        assert len(repository.affected_constraints("Flight", "sell")) == 1
        registration.constraint.enabled = False
        assert repository.affected_constraints("Flight", "sell") == []
        registration.constraint.enabled = True
        assert len(repository.affected_constraints("Flight", "sell")) == 1

    def test_direct_enabled_toggle_with_type_key(self):
        repository = CachingConstraintRepository()
        registration = make_registration("c1", ctype=ConstraintType.PRECONDITION)
        repository.register(registration)
        query = lambda: repository.affected_constraints(
            "Flight", "sell", ConstraintType.PRECONDITION
        )
        assert len(query()) == 1
        registration.constraint.enabled = False
        assert query() == []


@given(
    names=st.lists(
        st.text(alphabet="abcdefgh", min_size=1, max_size=6), min_size=1, max_size=20, unique=True
    ),
    queries=st.lists(st.sampled_from(["m1", "m2", "m3"]), max_size=10),
)
def test_caching_repository_equivalent_to_plain(names, queries):
    """Property: the optimized repositories return exactly what the plain
    one does for any registration set and query sequence."""
    plain = ConstraintRepository()
    caching = CachingConstraintRepository()
    compiled = CompiledConstraintRepository()
    for index, name in enumerate(names):
        method = f"m{(index % 3) + 1}"
        plain.register(make_registration(name, method=method))
        caching.register(make_registration(name, method=method))
        compiled.register(make_registration(name, method=method))
    for method in queries:
        plain_names = [m.name for m in plain.affected_constraints("Flight", method)]
        caching_names = [m.name for m in caching.affected_constraints("Flight", method)]
        compiled_names = [m.name for m in compiled.affected_constraints("Flight", method)]
        assert plain_names == caching_names == compiled_names


@given(
    specs=st.lists(
        st.tuples(
            st.sampled_from(["m1", "m2", "m3"]),
            st.sampled_from(list(ConstraintType)),
            st.sampled_from(list(ConstraintPriority)),
        ),
        min_size=1,
        max_size=12,
    ),
    toggles=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=11),
            st.sampled_from(["disable", "enable", "direct-off", "direct-on", "query"]),
        ),
        max_size=12,
    ),
)
def test_method_dispatch_agrees_across_repositories(specs, toggles):
    """Property: every repository kind answers the consistency manager's
    one query, and the answers agree with each other and with
    ``affected_constraints`` for any registration set and toggle sequence
    (through the repository, or directly on the constraint object)."""
    repositories = [
        ConstraintRepository(),
        CachingConstraintRepository(),
        CompiledConstraintRepository(),
    ]

    def check():
        for method in ("m1", "m2", "m3", "unknown"):
            dispatches = [r.method_dispatch("Flight", method) for r in repositories]
            for ctype in (None,) + tuple(ConstraintType):
                answers = [
                    [reg.name for reg in dispatch.registrations(ctype)]
                    for dispatch in dispatches
                ] + [
                    [reg.name for reg in r.affected_constraints("Flight", method, ctype)]
                    for r in repositories
                ]
                assert all(answer == answers[0] for answer in answers), (method, ctype)
            assert len({len(dispatch) for dispatch in dispatches}) == 1

    for repository in repositories:
        for index, (method, ctype, priority) in enumerate(specs):
            repository.register(
                make_registration(f"c{index}", method=method, ctype=ctype, priority=priority)
            )
    check()
    for index, action in toggles:
        name = f"c{index % len(specs)}"
        for repository in repositories:
            if action == "disable":
                repository.disable(name)
            elif action == "enable":
                repository.enable(name)
            elif action != "query":
                repository.by_name(name).constraint.enabled = action == "direct-on"
        check()
