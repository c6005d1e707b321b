"""Property test: compiled OCL is semantically equivalent to interpretation.

``OclConstraint`` validates through the compiled form; the interpreter of
``repro.validation.ocl`` is the reference.  This generates random
expression trees and checks both evaluation paths agree.
"""

from hypothesis import given, strategies as st

from repro.core.ocl_constraints import compile_ocl
from repro.validation.ocl import parse


class Model:
    """A small object graph OCL expressions can navigate."""

    def __init__(self, a: int, b: int, items: list[int], flag: bool) -> None:
        self.a = a
        self.b = b
        self.items = items
        self.flag = flag


# ----------------------------------------------------------------------
# random expression generation (as text, so both paths parse it)
# ----------------------------------------------------------------------
_numeric_atoms = st.sampled_from(["self.a", "self.b", "0", "1", "7", "42"])
_bool_atoms = st.sampled_from(["self.flag", "true", "false"])


def _numeric(depth: int) -> st.SearchStrategy[str]:
    if depth == 0:
        return _numeric_atoms
    return st.one_of(
        _numeric_atoms,
        st.tuples(
            _numeric(depth - 1), st.sampled_from(["+", "-", "*"]), _numeric(depth - 1)
        ).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
        st.just("self.items->size()"),
        st.just("self.items->sum()"),
    )


def _boolean(depth: int) -> st.SearchStrategy[str]:
    comparison = st.tuples(
        _numeric(depth), st.sampled_from(["<", "<=", ">", ">=", "=", "<>"]), _numeric(depth)
    ).map(lambda t: f"({t[0]} {t[1]} {t[2]})")
    if depth == 0:
        return st.one_of(_bool_atoms, comparison)
    sub = _boolean(depth - 1)
    return st.one_of(
        _bool_atoms,
        comparison,
        st.tuples(sub, st.sampled_from(["and", "or", "implies"]), sub).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"
        ),
        sub.map(lambda inner: f"(not {inner})"),
        st.tuples(_numeric(depth - 1)).map(
            lambda t: f"self.items->forAll(i | i <= {t[0]})"
        ),
        st.tuples(_numeric(depth - 1)).map(
            lambda t: f"self.items->exists(i | i > {t[0]})"
        ),
    )


@given(
    expression=_boolean(2),
    a=st.integers(-50, 50),
    b=st.integers(-50, 50),
    items=st.lists(st.integers(-20, 20), max_size=6),
    flag=st.booleans(),
)
def test_compiled_equals_interpreted(expression, a, b, items, flag):
    model = Model(a, b, items, flag)
    interpreted = bool(parse(expression).evaluate({"self": model}))
    compiled = bool(compile_ocl(expression)(model))
    assert compiled == interpreted, expression


@given(
    expression=_numeric(2),
    a=st.integers(-50, 50),
    b=st.integers(-50, 50),
    items=st.lists(st.integers(-20, 20), max_size=6),
)
def test_numeric_translation_equals_interpretation(expression, a, b, items):
    model = Model(a, b, items, True)
    interpreted = parse(expression).evaluate({"self": model})
    from repro.core.ocl_constraints import translate

    compiled_value = eval(  # noqa: S307 - generated from the grammar above
        translate(parse(expression)), {"len": len, "sum": sum}, {"self": model}
    )
    assert compiled_value == interpreted, expression
