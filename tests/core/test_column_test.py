"""``match_column_test`` / ``ColumnTest``: the one pushdown vocabulary.

Every pushdown consumer (reader statistics and dictionaries, CBO
selectivity, Elasticsearch, the realtime store, Kafka) reads a conjunct
through this matcher, so its meaning is pinned here against the
evaluator: the rows a ``ColumnTest`` admits are exactly the rows
``Evaluator.filter_mask`` keeps, ``excludes_range`` never rules out a
range holding a satisfying value, and any other shape is declined.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.blocks import block_from_values
from repro.core.evaluator import Evaluator
from repro.core.expressions import (
    CallExpression,
    ColumnTest,
    SpecialForm,
    SpecialFormExpression,
    constant,
    match_column_test,
    not_,
    or_,
    variable,
)
from repro.core.functions import default_registry
from repro.core.types import BIGINT, BOOLEAN, DOUBLE, VARCHAR

EVALUATOR = Evaluator()
COMPARISONS = [
    "equal",
    "greater_than",
    "greater_than_or_equal",
    "less_than",
    "less_than_or_equal",
]
# Small pools so generated constants collide with generated column values.
POOLS = {
    BIGINT: list(range(-3, 4)),
    DOUBLE: [x / 2 for x in range(-6, 7)],
    VARCHAR: ["", "a", "ab", "b", "ba", "c"],
}


def _call(name, arguments):
    handle, _ = default_registry().resolve_scalar(name, [a.type for a in arguments])
    return CallExpression(name, handle, handle.resolved_return_type(), tuple(arguments))


@st.composite
def conjunct_and_column(draw):
    """(conjunct over column ``c``, its type, column values with NULLs)."""
    presto_type = draw(st.sampled_from(list(POOLS)))
    maybe_null = st.one_of(st.none(), st.sampled_from(POOLS[presto_type]))
    column = variable("c", presto_type)
    op = draw(st.sampled_from(COMPARISONS + ["in"]))
    if op == "in":
        members = draw(st.lists(maybe_null, min_size=1, max_size=4))
        conjunct = SpecialFormExpression(
            SpecialForm.IN,
            BOOLEAN,
            (column, *(constant(m, presto_type) for m in members)),
        )
    else:
        bound = constant(draw(maybe_null), presto_type)
        constant_on_left = draw(st.booleans())
        conjunct = _call(op, [bound, column] if constant_on_left else [column, bound])
    values = draw(st.lists(maybe_null, min_size=1, max_size=12))
    return conjunct, presto_type, values


def _kept(conjunct, presto_type, values):
    bindings = {"c": block_from_values(presto_type, values)}
    return list(EVALUATOR.filter_mask(conjunct, bindings, len(values)))


@given(conjunct_and_column())
@settings(max_examples=400, deadline=None)
def test_admitted_rows_equal_the_evaluators_filter_mask(case):
    conjunct, presto_type, values = case
    test = match_column_test(conjunct)
    assert test is not None and test.column == "c"
    assert None not in test.values
    assert [test.admits(v) for v in values] == _kept(conjunct, presto_type, values)


@given(conjunct_and_column(), st.data())
@settings(max_examples=400, deadline=None)
def test_excludes_range_never_hides_a_satisfying_value(case, data):
    conjunct, presto_type, _ = case
    test = match_column_test(conjunct)
    pool = POOLS[presto_type]
    low, high = sorted(data.draw(st.tuples(st.sampled_from(pool), st.sampled_from(pool))))
    inside = [v for v in pool if low <= v <= high]
    if test.excludes_range(low, high):
        assert not any(_kept(conjunct, presto_type, inside))
    if not test.values:
        assert test.excludes_range(low, high)  # compared with NULL only


class TestShapes:
    C = variable("c", BIGINT)
    D = variable("d", BIGINT)

    def test_constant_on_the_left_is_flipped(self):
        flipped = match_column_test(_call("less_than_or_equal", [constant(5, BIGINT), self.C]))
        assert flipped == ColumnTest("c", "greater_than_or_equal", (5,))
        assert match_column_test(_call("greater_than", [constant(5, BIGINT), self.C])) == (
            ColumnTest("c", "less_than", (5,))
        )

    def test_null_constants_are_dropped(self):
        null = constant(None, BIGINT)
        assert match_column_test(_call("equal", [self.C, null])) == ColumnTest("c", "equal", ())
        members = (self.C, constant(1, BIGINT), null)
        in_list = SpecialFormExpression(SpecialForm.IN, BOOLEAN, members)
        assert match_column_test(in_list) == ColumnTest("c", "in", (1,))

    @pytest.mark.parametrize(
        "conjunct",
        [
            not_(_call("equal", [C, constant(1, BIGINT)])),
            or_(_call("equal", [C, constant(1, BIGINT)]), _call("equal", [C, constant(2, BIGINT)])),
            _call("equal", [C, D]),
            _call("equal", [_call("cast_double", [C]), constant(1.0, DOUBLE)]),
            _call("equal", [_call("add", [C, constant(1, BIGINT)]), constant(2, BIGINT)]),
            _call("not_equal", [C, constant(1, BIGINT)]),
            _call("equal", [constant(1, BIGINT), constant(1, BIGINT)]),
            SpecialFormExpression(SpecialForm.IN, BOOLEAN, (C, constant(1, BIGINT), D)),
            SpecialFormExpression(SpecialForm.IS_NULL, BOOLEAN, (C,)),
            C,
            constant(True, BOOLEAN),
        ],
        ids=lambda e: e.display(),
    )
    def test_any_other_shape_is_declined(self, conjunct):
        assert match_column_test(conjunct) is None
