"""Differential/property tests: compiled expression kernels vs interpreter.

Random expression trees over random pages — with nulls, strings, and
dictionary-encoded blocks — must produce identical results (values *and*
Python types) from the compiled lane and ``evaluate_interpreted``, the
same convention the vectorized operator kernels follow
(tests/execution/test_vectorized_kernels.py).
Kleene AND/OR/NOT and NULL-in-IN get both property coverage and explicit
exhaustive cases; so do the lambdas (``transform``/``filter``/``any_match``
over an ARRAY(BIGINT) column with NULL and empty arrays, NULL elements and a
captured outer column) and IN lists of column expressions.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.blocks import ArrayBlock, DictionaryBlock, PrimitiveBlock
from repro.core.compiler import bool_arrays
from repro.core.evaluator import Evaluator
from repro.core.expressions import (
    CallExpression,
    LambdaDefinitionExpression,
    SpecialForm,
    SpecialFormExpression,
    constant,
    variable,
)
from repro.core.functions import FunctionHandle, default_registry
from repro.core.types import BIGINT, BOOLEAN, VARCHAR, ArrayType

REGISTRY = default_registry()


def call(name, args, arg_types):
    handle, _ = REGISTRY.resolve_scalar(name, arg_types)
    return CallExpression(name, handle, handle.resolved_return_type(), tuple(args))


def compiled_evaluator():
    return Evaluator(REGISTRY)


def interpreted(expression, bindings, position_count):
    """The row-at-a-time oracle's result block."""
    return Evaluator(REGISTRY).evaluate_interpreted(expression, bindings, position_count)


def assert_identical(expression, bindings, position_count):
    compiled = compiled_evaluator().evaluate(expression, bindings, position_count)
    interpreted_block = interpreted(expression, bindings, position_count)
    compiled_values = compiled.to_list()
    interpreted_values = interpreted_block.to_list()
    assert [(type(v), v) for v in compiled_values] == [
        (type(v), v) for v in interpreted_values
    ]


# -- expression strategies ---------------------------------------------------

SMALL_INT = st.integers(min_value=-1000, max_value=1000)
WORDS = st.sampled_from(["air", "Airplane", "presto", "", "a%b", "x_y", "Real Time"])
PATTERNS = st.sampled_from(["air%", "%plane", "a_b", "%", "x%y", "Real%", "a.c"])


def int_expressions(depth):
    base = st.one_of(
        st.sampled_from([variable("x", BIGINT), variable("y", BIGINT)]),
        SMALL_INT.map(lambda v: constant(v, BIGINT)),
        st.just(constant(None, BIGINT)),
    )
    if depth <= 0:
        return base
    smaller = int_expressions(depth - 1)
    return st.one_of(
        base,
        st.tuples(st.sampled_from(["add", "subtract", "multiply"]), smaller, smaller).map(
            lambda t: call(t[0], [t[1], t[2]], [BIGINT, BIGINT])
        ),
        string_expressions(depth - 1).map(
            lambda s: call("length", [s], [VARCHAR])
        ),
        st.tuples(bool_expressions(depth - 1), smaller, smaller).map(
            lambda t: SpecialFormExpression(SpecialForm.IF, BIGINT, (t[0], t[1], t[2]))
        ),
    )


def string_expressions(depth):
    base = st.one_of(
        st.just(variable("s", VARCHAR)),
        WORDS.map(lambda v: constant(v, VARCHAR)),
        st.just(constant(None, VARCHAR)),
    )
    if depth <= 0:
        return base
    smaller = string_expressions(depth - 1)
    return st.one_of(
        base,
        st.tuples(st.sampled_from(["upper", "lower", "trim"]), smaller).map(
            lambda t: call(t[0], [t[1]], [VARCHAR])
        ),
        st.tuples(smaller, smaller).map(
            lambda t: call("concat", [t[0], t[1]], [VARCHAR, VARCHAR])
        ),
        st.tuples(smaller, st.integers(1, 4), st.integers(0, 4)).map(
            lambda t: call(
                "substr",
                [t[0], constant(t[1], BIGINT), constant(t[2], BIGINT)],
                [VARCHAR, BIGINT, BIGINT],
            )
        ),
    )


COMPARISONS = [
    "equal",
    "not_equal",
    "less_than",
    "less_than_or_equal",
    "greater_than",
    "greater_than_or_equal",
]


def bool_expressions(depth):
    base = st.one_of(
        st.just(variable("b", BOOLEAN)),
        st.sampled_from([constant(True, BOOLEAN), constant(False, BOOLEAN), constant(None, BOOLEAN)]),
    )
    if depth <= 0:
        return base
    int_smaller = int_expressions(depth - 1)
    str_smaller = string_expressions(depth - 1)
    smaller = bool_expressions(depth - 1)
    return st.one_of(
        base,
        st.tuples(st.sampled_from(COMPARISONS), int_smaller, int_smaller).map(
            lambda t: call(t[0], [t[1], t[2]], [BIGINT, BIGINT])
        ),
        st.tuples(str_smaller, PATTERNS).map(
            lambda t: call("like", [t[0], constant(t[1], VARCHAR)], [VARCHAR, VARCHAR])
        ),
        st.lists(smaller, min_size=2, max_size=3).map(
            lambda args: SpecialFormExpression(SpecialForm.AND, BOOLEAN, tuple(args))
        ),
        st.lists(smaller, min_size=2, max_size=3).map(
            lambda args: SpecialFormExpression(SpecialForm.OR, BOOLEAN, tuple(args))
        ),
        smaller.map(
            lambda a: SpecialFormExpression(SpecialForm.NOT, BOOLEAN, (a,))
        ),
        int_smaller.map(
            lambda a: SpecialFormExpression(SpecialForm.IS_NULL, BOOLEAN, (a,))
        ),
        st.tuples(
            int_smaller,
            st.lists(st.one_of(SMALL_INT, st.none()), min_size=1, max_size=4),
        ).map(
            lambda t: SpecialFormExpression(
                SpecialForm.IN,
                BOOLEAN,
                (t[0],) + tuple(constant(v, BIGINT) for v in t[1]),
            )
        ),
        in_lists(int_smaller),
        lambda_bool_bodies().map(lambda body: higher_order("any_match", body)),
    )


def in_lists(ints):
    """``value IN (...)`` whose candidates are expressions, NULL among them."""
    candidate = st.one_of(ints, st.just(constant(None, BIGINT)))
    return st.tuples(ints, st.lists(candidate, min_size=1, max_size=3)).map(
        lambda t: SpecialFormExpression(SpecialForm.IN, BOOLEAN, (t[0],) + tuple(t[1]))
    )


# -- lambdas over the ARRAY(BIGINT) column ``a``; ``x`` is captured -----------

ARRAYS = ArrayType(BIGINT)
ELEMENT = variable("v", BIGINT)


def lambda_int_bodies():
    base = st.one_of(
        st.sampled_from([ELEMENT, variable("x", BIGINT)]),
        SMALL_INT.map(lambda v: constant(v, BIGINT)),
        st.just(constant(None, BIGINT)),
    )
    return st.one_of(
        base,
        st.tuples(st.sampled_from(["add", "subtract", "multiply"]), base, base).map(
            lambda t: call(t[0], [t[1], t[2]], [BIGINT, BIGINT])
        ),
    )


def lambda_bool_bodies():
    ints = lambda_int_bodies()
    return st.one_of(
        st.tuples(st.sampled_from(COMPARISONS), ints, ints).map(
            lambda t: call(t[0], [t[1], t[2]], [BIGINT, BIGINT])
        ),
        in_lists(ints),
    )


def higher_order(name, body):
    return_type = {"transform": ArrayType(body.type), "filter": ARRAYS}.get(name, BOOLEAN)
    handle = FunctionHandle(name, (ARRAYS.display(), "function"), return_type.display())
    lam = LambdaDefinitionExpression(("v",), (BIGINT,), body, body.type)
    return CallExpression(name, handle, return_type, (variable("a", ARRAYS), lam))


def lambda_expressions():
    return st.one_of(
        lambda_int_bodies().map(lambda body: higher_order("transform", body)),
        lambda_bool_bodies().map(lambda body: higher_order("filter", body)),
        lambda_bool_bodies().map(lambda body: higher_order("any_match", body)),
    )


# -- page strategies ---------------------------------------------------------


@st.composite
def pages(draw):
    n = draw(st.integers(min_value=0, max_value=24))
    xs = draw(st.lists(st.one_of(SMALL_INT, st.none()), min_size=n, max_size=n))
    ys = draw(st.lists(st.one_of(SMALL_INT, st.none()), min_size=n, max_size=n))
    bs = draw(st.lists(st.one_of(st.booleans(), st.none()), min_size=n, max_size=n))
    arrays = draw(
        st.lists(
            st.one_of(st.none(), st.lists(st.one_of(SMALL_INT, st.none()), max_size=4)),
            min_size=n,
            max_size=n,
        )
    )

    if draw(st.booleans()) and n > 0:
        # Dictionary-encode the varchar column: ids into a small pool,
        # id -1 meaning null.
        pool = draw(st.lists(WORDS, min_size=1, max_size=4))
        ids = draw(
            st.lists(
                st.integers(min_value=-1, max_value=len(pool) - 1),
                min_size=n,
                max_size=n,
            )
        )
        s_block = DictionaryBlock(
            PrimitiveBlock.from_values(VARCHAR, pool), np.array(ids, dtype=np.int64)
        )
    else:
        ss = draw(st.lists(st.one_of(WORDS, st.none()), min_size=n, max_size=n))
        s_block = PrimitiveBlock.from_values(VARCHAR, ss)

    bindings = {
        "x": PrimitiveBlock.from_values(BIGINT, xs),
        "y": PrimitiveBlock.from_values(BIGINT, ys),
        "b": PrimitiveBlock.from_values(BOOLEAN, bs),
        "s": s_block,
        "a": ArrayBlock.from_values(ARRAYS, arrays),
    }
    return bindings, n


# -- property tests ----------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(expression=bool_expressions(3), page=pages())
def test_random_predicates_identical(expression, page):
    bindings, n = page
    assert_identical(expression, bindings, n)
    compiled_mask = compiled_evaluator().filter_mask(expression, bindings, n)
    interpreted_mask, _ = bool_arrays(interpreted(expression, bindings, n))
    assert list(compiled_mask) == list(interpreted_mask)


@settings(max_examples=150, deadline=None)
@given(expression=int_expressions(3), page=pages())
def test_random_integer_expressions_identical(expression, page):
    bindings, n = page
    assert_identical(expression, bindings, n)


@settings(max_examples=150, deadline=None)
@given(expression=string_expressions(3), page=pages())
def test_random_string_expressions_identical(expression, page):
    bindings, n = page
    assert_identical(expression, bindings, n)


@settings(max_examples=150, deadline=None)
@given(expression=lambda_expressions(), page=pages())
def test_random_lambdas_identical(expression, page):
    bindings, n = page
    compiled = compiled_evaluator().evaluate(expression, bindings, n).to_list()
    # repr tells 1 from 1.0 and from True, and a numpy scalar from both.
    assert repr(compiled) == repr(interpreted(expression, bindings, n).to_list())


# -- explicit edge cases -----------------------------------------------------


def test_kleene_truth_tables_exhaustive():
    values = [True, False, None]
    lanes = [(a, b) for a in values for b in values]
    a_block = PrimitiveBlock.from_values(BOOLEAN, [v for v, _ in lanes])
    b_block = PrimitiveBlock.from_values(BOOLEAN, [v for _, v in lanes])
    for form in (SpecialForm.AND, SpecialForm.OR):
        expression = SpecialFormExpression(
            form, BOOLEAN, (variable("a", BOOLEAN), variable("b", BOOLEAN))
        )
        assert_identical(expression, {"a": a_block, "b": b_block}, len(lanes))
    assert_identical(
        SpecialFormExpression(SpecialForm.NOT, BOOLEAN, (variable("a", BOOLEAN),)),
        {"a": a_block},
        len(lanes),
    )


def test_null_in_in_list():
    x = PrimitiveBlock.from_values(BIGINT, [1, 2, None])
    # 1 IN (1, NULL) → True;  2 IN (1, NULL) → NULL;  NULL IN (...) → NULL.
    expression = SpecialFormExpression(
        SpecialForm.IN,
        BOOLEAN,
        (variable("x", BIGINT), constant(1, BIGINT), constant(None, BIGINT)),
    )
    assert_identical(expression, {"x": x}, 3)
    result = compiled_evaluator().evaluate(expression, {"x": x}, 3)
    assert result.to_list() == [True, None, None]


def test_empty_page():
    expression = call(
        "greater_than", [variable("x", BIGINT), constant(0, BIGINT)], [BIGINT, BIGINT]
    )
    empty = PrimitiveBlock.from_values(BIGINT, [])
    assert_identical(expression, {"x": empty}, 0)


def test_in_list_of_columns_with_nulls():
    # (x, y, z) = (1, 2, NULL): no match and a NULL candidate → NULL;
    # (3, NULL, 4) likewise; (2, 2, NULL): a match wins over the NULL.
    bindings = {
        "x": PrimitiveBlock.from_values(BIGINT, [1, 3, 2]),
        "y": PrimitiveBlock.from_values(BIGINT, [2, None, 2]),
        "z": PrimitiveBlock.from_values(BIGINT, [None, 4, None]),
    }
    expression = SpecialFormExpression(
        SpecialForm.IN,
        BOOLEAN,
        (variable("x", BIGINT), variable("y", BIGINT), variable("z", BIGINT)),
    )
    assert_identical(expression, bindings, 3)
    result = compiled_evaluator().evaluate(expression, bindings, 3)
    assert result.to_list() == [None, None, True]


def test_any_match_three_valued():
    # [1, NULL, 3] with v > 3: nothing matches, one element is NULL → NULL;
    # an empty array → FALSE; a NULL array → NULL.  filter drops the
    # NULL-predicate element.
    bindings = {"a": ArrayBlock.from_values(ARRAYS, [[1, None, 3], [], None, [4]])}
    above_3 = call("greater_than", [ELEMENT, constant(3, BIGINT)], [BIGINT, BIGINT])
    any_match = higher_order("any_match", above_3)
    assert_identical(any_match, bindings, 4)
    assert compiled_evaluator().evaluate(any_match, bindings, 4).to_list() == [
        None, False, None, True,
    ]
    above_1 = call("greater_than", [ELEMENT, constant(1, BIGINT)], [BIGINT, BIGINT])
    kept = compiled_evaluator().evaluate(higher_order("filter", above_1), bindings, 4)
    assert kept.to_list() == [[3], [], None, [4]]
