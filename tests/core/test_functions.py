"""Unit tests for the builtin scalar and aggregate function library."""

import math

import numpy as np
import pytest

from repro.common.errors import InvalidValueError, SemanticError
from repro.connectors.memory import MemoryConnector
from repro.execution.engine import PrestoEngine
from repro.planner.analyzer import Session
from repro.core.functions import FunctionHandle, default_registry
from repro.core.types import (
    ArrayType,
    BIGINT,
    BOOLEAN,
    DOUBLE,
    INTEGER,
    MapType,
    VARCHAR,
)


def call(name, *args):
    types = []
    for arg in args:
        if isinstance(arg, bool):
            types.append(BOOLEAN)
        elif isinstance(arg, int):
            types.append(BIGINT)
        elif isinstance(arg, float):
            types.append(DOUBLE)
        elif isinstance(arg, str):
            types.append(VARCHAR)
        elif isinstance(arg, list):
            types.append(ArrayType(BIGINT if arg and isinstance(arg[0], int) else VARCHAR))
        elif isinstance(arg, dict):
            types.append(MapType(VARCHAR, DOUBLE))
        else:
            raise AssertionError(f"untyped arg {arg!r}")
    _, fn = default_registry().resolve_scalar(name, types)
    # The error state the compiler applies every implementation under.
    with np.errstate(all="ignore"):
        return fn.row_fn(*args)


class TestArithmetic:
    def test_add_sub_mul(self):
        assert call("add", 2, 3) == 5
        assert call("subtract", 2, 3) == -1
        assert call("multiply", 4, 3) == 12

    def test_integer_division_truncates(self):
        assert call("divide", 7, 2) == 3
        assert call("divide", -7, 2) == -3
        assert call("divide", 7, -2) == -3

    def test_float_division(self):
        assert call("divide", 7.0, 2.0) == 3.5

    def test_modulus(self):
        assert call("modulus", 7, 3) == 1
        assert call("modulus", 7.5, 2.0) == 1.5

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            call("divide", 1, 0)
        with pytest.raises(ZeroDivisionError):
            call("modulus", 1, 0)

    def test_negate(self):
        assert call("negate", 5) == -5


class TestStrings:
    def test_case_functions(self):
        assert call("lower", "MiXeD") == "mixed"
        assert call("upper", "MiXeD") == "MIXED"

    def test_length_concat(self):
        assert call("length", "hello") == 5
        assert call("concat", "foo", "bar") == "foobar"

    def test_substr(self):
        assert call("substr", "presto", 2, 3) == "res"
        assert call("substr", "presto", 4) == "sto"
        # Presto's rule at the edges: start 0 and starts before the first
        # character give '', a negative start counts from the end.
        assert call("substr", "abc", 0) == ""
        assert call("substr", "a%c", -1) == "c"
        assert call("substr", "abc", -3, 2) == "ab"
        assert call("substr", "abc", -4) == ""
        assert call("substr", "abc", 4) == ""
        assert call("substr", "abc", 2, 0) == ""

    def test_strpos(self):
        assert call("strpos", "hello", "ll") == 3
        assert call("strpos", "hello", "x") == 0

    def test_like(self):
        assert call("like", "driver-42", "driver-%")
        assert call("like", "abc", "a_c")
        assert not call("like", "abc", "a_d")
        assert call("like", "100%", "100%")  # % at end matches empty too

    def test_like_escapes_regex_metacharacters(self):
        assert call("like", "a.c", "a.c")
        assert not call("like", "abc", "a.c")  # '.' is literal in LIKE


class TestMath:
    def test_abs(self):
        assert call("abs", -3) == 3

    def test_sqrt_floor_ceil_round(self):
        assert call("sqrt", 9.0) == 3.0
        assert call("floor", 2.7) == 2.0
        assert call("ceil", 2.2) == 3.0
        assert call("round", 2.5) == 3.0  # Presto rounds halves away from zero

    def test_power_ln(self):
        assert call("power", 2.0, 10.0) == 1024.0
        assert call("ln", 1.0) == 0.0


class TestCasts:
    def test_numeric_casts(self):
        assert call("cast_bigint", "42") == 42
        assert call("cast_double", "2.5") == 2.5
        assert call("cast_bigint", 3.9) == 4  # Presto rounds, never truncates

    @pytest.mark.parametrize(
        "value, rounded", [(2.5, 3), (-2.5, -3), (2.7, 3), (-0.5, -1), (0.49999999999999994, 0)]
    )
    def test_double_to_integral_rounds_half_away_from_zero(self, value, rounded):
        assert call("cast_bigint", value) == rounded
        assert call("cast_integer", value) == rounded
        assert call("round", value) == float(rounded)

    @pytest.mark.parametrize(
        "value, text", [(math.inf, "Infinity"), (-math.inf, "-Infinity"), (math.nan, "NaN")]
    )
    def test_non_finite_doubles_do_not_cast(self, value, text):
        for target in ("bigint", "integer"):
            with pytest.raises(InvalidValueError, match=f"Unable to cast {text} to {target}"):
                call(f"cast_{target}", value)

    def test_varchar_cast(self):
        assert call("cast_varchar", 42) == "42"
        assert call("cast_varchar", True) == "true"
        assert call("cast_varchar", 2.0) == "2.0"

    def test_boolean_cast(self):
        assert call("cast_boolean", "true")
        assert not call("cast_boolean", "0")
        with pytest.raises(ValueError):
            call("cast_boolean", "maybe")


class TestCollections:
    def test_cardinality(self):
        assert call("cardinality", [1, 2, 3]) == 3
        assert call("cardinality", {"a": 1.0}) == 1

    def test_element_at_array(self):
        assert call("element_at", [10, 20], 2) == 20
        assert call("element_at", [10, 20], 3) is None
        assert call("element_at", [10, 20], 0) is None

    def test_element_at_map(self):
        assert call("element_at", {"a": 1.5}, "a") == 1.5
        assert call("element_at", {"a": 1.5}, "b") is None

    def test_contains_and_array_max(self):
        assert call("contains", [1, 2], 2)
        assert not call("contains", [1, 2], 5)
        assert call("array_max", [3, 9, 1]) == 9

    def test_map_keys(self):
        assert call("map_keys", {"x": 1.0, "y": 2.0}) == ["x", "y"]


class TestResolution:
    def test_widening(self):
        handle, _ = default_registry().resolve_scalar("add", [INTEGER, BIGINT])
        assert handle.return_type == "bigint"

    def test_varchar_comparison(self):
        handle, _ = default_registry().resolve_scalar("equal", [VARCHAR, VARCHAR])
        assert handle.return_type == "boolean"

    def test_cross_type_comparison_rejected(self):
        with pytest.raises(SemanticError):
            default_registry().resolve_scalar("less_than", [VARCHAR, BIGINT])

    def test_handle_round_trip(self):
        handle, _ = default_registry().resolve_scalar("lower", [VARCHAR])
        restored = FunctionHandle.from_dict(handle.to_dict())
        assert restored == handle
        assert default_registry().implementation_for(restored).row_fn("A") == "a"


class TestAggregates:
    def agg(self, name, values, types=None):
        registry = default_registry()
        types = types if types is not None else [BIGINT]
        _, fn = registry.resolve_aggregate(name, types)
        state = fn.create_state()
        for value in values:
            state = fn.add_input(state, (value,))
        return fn.finalize(state)

    def test_sum_ignores_nulls(self):
        assert self.agg("sum", [1, None, 3]) == 4

    def test_sum_all_null_is_null(self):
        assert self.agg("sum", [None, None]) is None

    def test_min_max(self):
        assert self.agg("min", [5, 2, None, 9]) == 2
        assert self.agg("max", [5, 2, None, 9]) == 9

    def test_avg(self):
        assert self.agg("avg", [2, 4, None]) == 3.0
        assert self.agg("avg", [None]) is None

    def test_count_with_argument_skips_nulls(self):
        registry = default_registry()
        _, fn = registry.resolve_aggregate("count", [BIGINT])
        state = fn.create_state()
        for value in [1, None, 2]:
            state = fn.add_input(state, (value,))
        assert fn.finalize(state) == 2

    def test_approx_distinct(self):
        assert self.agg("approx_distinct", [1, 2, 2, 3, None]) == 3

    def test_array_agg(self):
        assert self.agg("array_agg", [1, None, 2]) == [1, 2]

    def test_merge_semantics(self):
        registry = default_registry()
        _, fn = registry.resolve_aggregate("max", [BIGINT])
        assert fn.merge(5, 9) == 9
        assert fn.merge(None, 4) == 4
        assert fn.merge(4, None) == 4


class TestPrestoRoundingThroughSql:
    """The compiled (array) lane over a column, and the row lane via
    constant folding of a literal, agree with Presto's answers."""

    DOUBLES = [2.5, -2.5, 2.7, -0.5, 2147483647.4, -2147483648.4]

    @pytest.fixture(scope="class")
    def engine(self):
        connector = MemoryConnector()
        connector.create_table(
            "db", "t", [("i", BIGINT), ("d", DOUBLE)], list(enumerate(self.DOUBLES))
        )
        connector.create_table(
            "db",
            "edge",
            [("i", BIGINT), ("d", DOUBLE)],
            [(0, math.inf), (1, -math.inf), (2, math.nan), (3, 2147483647.5), (4, -2147483648.5)],
        )
        engine = PrestoEngine(session=Session(catalog="memory", schema="db"))
        engine.register_connector("memory", connector)
        return engine

    def test_column_casts_and_round(self, engine):
        rows = engine.execute(
            "SELECT CAST(d AS BIGINT), CAST(d AS INTEGER), round(d) FROM t ORDER BY i"
        ).rows
        assert rows == [
            (3, 3, 3.0),
            (-3, -3, -3.0),
            (3, 3, 3.0),
            (-1, -1, -1.0),
            (2147483647, 2147483647, 2147483647.0),
            (-2147483648, -2147483648, -2147483648.0),
        ]

    def test_literal_casts_and_round(self, engine):
        assert engine.execute(
            "SELECT CAST(2.5 AS BIGINT), CAST(-2.5E0 AS BIGINT), round(2.5), round(-2.5)"
        ).rows == [(3, -3, 3.0, -3.0)]

    @pytest.mark.parametrize(
        "row, target, text",
        [
            (0, "BIGINT", "Infinity"),
            (1, "BIGINT", "-Infinity"),
            (2, "BIGINT", "NaN"),
            (0, "INTEGER", "Infinity"),
            (2, "INTEGER", "NaN"),
            (3, "INTEGER", "2147483647.5"),
            (4, "INTEGER", "-2147483648.5"),
        ],
    )
    def test_values_outside_the_type_fail(self, engine, row, target, text):
        with pytest.raises(InvalidValueError, match=f"Unable to cast {text} to {target.lower()}"):
            engine.execute(f"SELECT CAST(d AS {target}) FROM edge WHERE i = {row}")

    def test_integer_out_of_range_literal_fails(self, engine):
        with pytest.raises(InvalidValueError, match="Unable to cast 2500000000.0 to integer"):
            engine.execute("SELECT CAST(2.5e9 AS INTEGER)")
        with pytest.raises(InvalidValueError, match="Unable to cast 3000000000 to integer"):
            engine.execute("SELECT CAST(i + 3000000000 AS INTEGER) FROM t")

