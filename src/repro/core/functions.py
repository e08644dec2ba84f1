"""Function registry and resolvable FunctionHandles.

Section IV.B: the AST-based pushdown representation "does not contain type
information as well as enough information to perform function resolution.
We resolve this by storing function resolution information in the expression
representation itself as a serializable functionHandle."

A :class:`FunctionHandle` is the serializable identity of one resolved
function: name plus exact argument types plus return type.  Connectors on
the far side of a pushdown can re-resolve the handle against their own copy
of the registry, which is what makes ``RowExpression`` self-contained.

Scalar functions carry an optional *vectorized* implementation operating on
numpy arrays (the Python stand-in for Presto's ASM code generation) and
always carry a row-at-a-time fallback.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable, Optional, Sequence

import numpy as np

from repro.common.errors import InvalidValueError, SemanticError
from repro.core.types import (
    ArrayType,
    BIGINT,
    BOOLEAN,
    DATE,
    DOUBLE,
    GEOMETRY,
    INTEGER,
    MapType,
    PrestoType,
    RowType,
    TIMESTAMP,
    UNKNOWN,
    VARCHAR,
    common_super_type,
    parse_type,
)


@dataclass(frozen=True)
class FunctionHandle:
    """Serializable identity of one resolved function."""

    name: str
    argument_types: tuple[str, ...]
    return_type: str

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "argumentTypes": list(self.argument_types),
            "returnType": self.return_type,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FunctionHandle":
        return cls(data["name"], tuple(data["argumentTypes"]), data["returnType"])

    def resolved_return_type(self) -> PrestoType:
        return parse_type(self.return_type)


@dataclass
class ScalarFunction:
    """One resolvable scalar function overload family.

    ``resolve`` maps concrete argument types to a return type (or ``None``
    if this family does not apply).  ``vectorized`` operates on numpy value
    arrays (nulls already masked out by the evaluator); ``row_fn`` is the
    per-row fallback and the reference semantics.
    """

    name: str
    resolve: Callable[[Sequence[PrestoType]], Optional[PrestoType]]
    row_fn: Callable[..., Any]
    vectorized: Optional[Callable[..., np.ndarray]] = None
    deterministic: bool = True
    # Whether ``vectorized`` is safe over object-dtype (string/date) arrays.
    # Numeric-only kernels keep the default and fall back per row instead.
    vectorized_on_objects: bool = False


@dataclass
class AggregateFunction:
    """One aggregate function: create/add/merge/finalize state machine."""

    name: str
    resolve: Callable[[Sequence[PrestoType]], Optional[PrestoType]]
    create_state: Callable[[], Any]
    add_input: Callable[[Any, tuple], Any]
    merge: Callable[[Any, Any], Any]
    finalize: Callable[[Any], Any]


# Aggregates whose finalized value is itself a partial state (``finalize`` is
# the identity), so per-shard results can be merged again: what a connector
# may compute natively, a materialized view may hold, and the realtime
# store's cross-segment merge relies on.
MERGEABLE_AGGREGATES = frozenset({"count", "sum", "min", "max"})

# Aggregates the fragmenter splits into PARTIAL and FINAL steps around an
# exchange.  approx_distinct, array_agg, DISTINCT and plugin aggregates run
# once beyond it over their raw input: no set or list state crosses one.
SPLIT_AGGREGATES = MERGEABLE_AGGREGATES | {"avg"}

# avg's PARTIAL output, like Presto's intermediate types: the FINAL step
# adds the sums and the counts.
AVG_INTERMEDIATE = RowType.of(("sum", DOUBLE), ("count", BIGINT))


def intermediate_type(handle: FunctionHandle) -> PrestoType:
    """The type of one split aggregate's PARTIAL output."""
    if handle.name == "avg":
        return AVG_INTERMEDIATE
    return handle.resolved_return_type()


class GroupFold:
    """Row-at-a-time grouped aggregation: ``group key → one state per
    aggregate``, groups kept in first-seen order.

    The one spelling of create_state / add_input | merge / finalize: the
    aggregation operator's reference lane and its plugin aggregates, the
    realtime store's per-segment and cross-segment steps and
    materialized-view refresh all fold here.
    """

    #: In place of an aggregate's input: leave that state as it is (how the
    #: operator's DISTINCT bookkeeping drops a repeated argument).
    SKIP = object()

    def __init__(
        self, implementations: Sequence[AggregateFunction], merge: bool = False
    ) -> None:
        self._implementations = list(implementations)
        # Under ``merge`` the inputs are partial states, not argument tuples.
        self._steps = [
            impl.merge if merge else impl.add_input for impl in self._implementations
        ]
        self.groups: dict[tuple, list[Any]] = {}

    def states(self, key: tuple) -> list[Any]:
        """The states of ``key``, created on first sight."""
        states = self.groups.get(key)
        if states is None:
            states = self.groups[key] = [
                impl.create_state() for impl in self._implementations
            ]
        return states

    def fold(self, key: tuple, inputs: Sequence[Any]) -> None:
        """Advance each aggregate of ``key`` by its entry of ``inputs``."""
        # Called once per row by every caller: the dict probe and the index
        # arithmetic are spelled out because a nested call or a zip here is
        # a fifth of the realtime store's host time.
        states = self.groups.get(key)
        if states is None:
            states = self.states(key)
        steps = self._steps
        index = 0
        for value in inputs:
            if value is not GroupFold.SKIP:
                states[index] = steps[index](states[index], value)
            index += 1

    def rows(self) -> list[tuple]:
        """One finalized ``key + values`` row per group."""
        implementations = self._implementations
        return [
            tuple(key)
            + tuple(impl.finalize(s) for impl, s in zip(implementations, states))
            for key, states in self.groups.items()
        ]


class FunctionRegistry:
    """Registry resolving (name, argument types) to implementations."""

    def __init__(self) -> None:
        self._scalars: dict[str, list[ScalarFunction]] = {}
        self._aggregates: dict[str, list[AggregateFunction]] = {}
        _register_builtin_scalars(self)
        _register_builtin_aggregates(self)

    # -- registration -----------------------------------------------------

    def register_scalar(self, function: ScalarFunction) -> None:
        self._scalars.setdefault(function.name.lower(), []).append(function)

    def register_aggregate(self, function: AggregateFunction) -> None:
        self._aggregates.setdefault(function.name.lower(), []).append(function)

    # -- resolution --------------------------------------------------------

    def is_aggregate(self, name: str) -> bool:
        return name.lower() in self._aggregates

    def resolve_scalar(
        self, name: str, argument_types: Sequence[PrestoType]
    ) -> tuple[FunctionHandle, ScalarFunction]:
        """Resolve a scalar call, returning its handle and implementation."""
        overloads = self._scalars.get(name.lower())
        if not overloads:
            raise SemanticError(f"unknown function: {name}")
        for fn in overloads:
            return_type = fn.resolve(argument_types)
            if return_type is not None:
                handle = FunctionHandle(
                    name.lower(),
                    tuple(t.display() for t in argument_types),
                    return_type.display(),
                )
                return handle, fn
        rendered = ", ".join(t.display() for t in argument_types)
        raise SemanticError(f"no overload of {name}({rendered})")

    def resolve_aggregate(
        self, name: str, argument_types: Sequence[PrestoType]
    ) -> tuple[FunctionHandle, AggregateFunction]:
        overloads = self._aggregates.get(name.lower())
        if not overloads:
            raise SemanticError(f"unknown aggregate function: {name}")
        for fn in overloads:
            return_type = fn.resolve(argument_types)
            if return_type is not None:
                handle = FunctionHandle(
                    name.lower(),
                    tuple(t.display() for t in argument_types),
                    return_type.display(),
                )
                return handle, fn
        rendered = ", ".join(t.display() for t in argument_types)
        raise SemanticError(f"no overload of aggregate {name}({rendered})")

    def implementation_for(self, handle: FunctionHandle) -> ScalarFunction:
        """Re-resolve a handle (e.g. one deserialized inside a connector)."""
        types = [parse_type(t) for t in handle.argument_types]
        _, fn = self.resolve_scalar(handle.name, types)
        return fn

    def aggregate_for(self, handle: FunctionHandle) -> AggregateFunction:
        types = [parse_type(t) for t in handle.argument_types]
        _, fn = self.resolve_aggregate(handle.name, types)
        return fn


# ---------------------------------------------------------------------------
# Built-in scalar functions
# ---------------------------------------------------------------------------


def _numeric_pair(arg_types: Sequence[PrestoType]) -> Optional[PrestoType]:
    if len(arg_types) != 2:
        return None
    out = common_super_type(arg_types[0], arg_types[1])
    if out is not None and out.is_numeric():
        return out
    return None


def _comparable_pair(arg_types: Sequence[PrestoType]) -> Optional[PrestoType]:
    if len(arg_types) != 2:
        return None
    a, b = arg_types
    if common_super_type(a, b) is None:
        return None
    return BOOLEAN


def _fixed(signature: Sequence[PrestoType], return_type: PrestoType):
    expected = tuple(signature)

    def resolve(arg_types: Sequence[PrestoType]) -> Optional[PrestoType]:
        if len(arg_types) != len(expected):
            return None
        for got, want in zip(arg_types, expected):
            if got is UNKNOWN:
                continue
            if common_super_type(got, want) != want:
                return None
        return return_type

    return resolve


def _div(a: Any, b: Any) -> Any:
    if b == 0:
        raise ZeroDivisionError("division by zero")
    if isinstance(a, int) and isinstance(b, int):
        # Presto integer division truncates toward zero.
        q = abs(a) // abs(b)
        return q if (a >= 0) == (b >= 0) else -q
    return a / b


def _vec_div(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if np.any(b == 0):
        raise ZeroDivisionError("division by zero")
    if a.dtype.kind in "iu" and b.dtype.kind in "iu":
        q = np.abs(a) // np.abs(b)
        return np.where((a >= 0) == (b >= 0), q, -q)
    return a / b


def _mod(a: Any, b: Any) -> Any:
    if isinstance(a, int) and isinstance(b, int):
        if b == 0:
            raise ZeroDivisionError("modulo by zero")
        return int(np.fmod(a, b))
    # Double modulus is IEEE fmod: x % 0.0 and inf % y are NaN, silently.
    with np.errstate(invalid="ignore", divide="ignore"):
        return float(np.fmod(a, b))


def _vec_mod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if _both_bigint(a, b) and np.any(b == 0):
        raise ZeroDivisionError("modulo by zero")
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.fmod(a, b)


# Bigint arithmetic whose true result leaves int64 is an error, as Presto's
# "bigint multiplication overflow" is, never a wrapped or widened value.
_BIGINT_MIN = -(2**63)
_BIGINT_MAX = 2**63 - 1


def _both_bigint(*arrays: np.ndarray) -> bool:
    return all(a.dtype.kind == "i" for a in arrays)


def _overflow(operation: str, text: str) -> InvalidValueError:
    return InvalidValueError(f"bigint {operation} overflow: {text}")


def _checked(operation: str, symbol: str, op: Callable[..., Any]) -> Callable[..., Any]:
    """The row form of bigint ``op``: exact on Python ints, and an error
    when the result leaves int64.  Any other operand types pass through."""

    def row_fn(*args: Any) -> Any:
        if not all(isinstance(a, (int, np.integer)) for a in args):
            return op(*args)
        result = op(*(int(a) for a in args))
        if not _BIGINT_MIN <= result <= _BIGINT_MAX:
            raise _overflow(operation, f" {symbol} ".join(str(int(a)) for a in args))
        return result

    return row_fn


def _raise_on_wrapped(
    operation: str, symbol: str, wrapped: np.ndarray, a: np.ndarray, b: np.ndarray
) -> None:
    if wrapped.any():
        lane = int(np.argmax(wrapped))
        raise _overflow(operation, f"{int(a[lane])} {symbol} {int(b[lane])}")


def _vec_add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        result = np.add(a, b)
    if _both_bigint(a, b):
        # Two's complement: the sum wrapped iff its sign differs from both.
        _raise_on_wrapped("addition", "+", ((a ^ result) & (b ^ result)) < 0, a, b)
    return result


def _vec_subtract(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        result = np.subtract(a, b)
    if _both_bigint(a, b):
        # Wrapped iff the operands' signs differ and the result's is b's.
        _raise_on_wrapped("subtraction", "-", ((a ^ b) & (a ^ result)) < 0, a, b)
    return result


def _vec_multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        result = np.multiply(a, b)
    if _both_bigint(a, b):
        # The float product is within a few ulps of the true one, so only
        # lanes at or above 2**62 can have left int64; check those exactly.
        suspect = np.flatnonzero(np.abs(np.multiply(a, b, dtype=np.float64)) >= 2.0**62)
        if len(suspect):
            wrapped = np.zeros(len(result), dtype=bool)
            wrapped[suspect] = [
                not _BIGINT_MIN <= left * right <= _BIGINT_MAX
                for left, right in zip(a[suspect].tolist(), b[suspect].tolist())
            ]
            _raise_on_wrapped("multiplication", "*", wrapped, a, b)
    return result


def _vec_negate(a: np.ndarray) -> np.ndarray:
    if _both_bigint(a) and np.any(a == _BIGINT_MIN):
        raise _overflow("negation", str(_BIGINT_MIN))
    return -a


def _register_builtin_scalars(registry: FunctionRegistry) -> None:
    def scalar(name, resolve, row_fn, vectorized=None, objects=False):
        registry.register_scalar(
            ScalarFunction(name, resolve, row_fn, vectorized, vectorized_on_objects=objects)
        )

    # Arithmetic
    scalar("add", _numeric_pair, _checked("addition", "+", lambda a, b: a + b), _vec_add)
    scalar(
        "subtract", _numeric_pair, _checked("subtraction", "-", lambda a, b: a - b), _vec_subtract
    )
    scalar(
        "multiply", _numeric_pair, _checked("multiplication", "*", lambda a, b: a * b), _vec_multiply
    )
    scalar("divide", _numeric_pair, _div, _vec_div)
    scalar("modulus", _numeric_pair, _mod, _vec_mod)
    scalar(
        "negate",
        lambda ts: ts[0] if len(ts) == 1 and ts[0].is_numeric() else None,
        _checked("negation", "-", lambda a: -a),
        _vec_negate,
    )

    # Comparison (equals works on any comparable pair, including varchar;
    # numpy applies the rich comparison elementwise on object arrays).
    scalar("equal", _comparable_pair, lambda a, b: a == b, lambda a, b: a == b, objects=True)
    scalar("not_equal", _comparable_pair, lambda a, b: a != b, lambda a, b: a != b, objects=True)
    scalar("less_than", _comparable_pair, lambda a, b: a < b, lambda a, b: a < b, objects=True)
    scalar(
        "less_than_or_equal", _comparable_pair, lambda a, b: a <= b, lambda a, b: a <= b, objects=True
    )
    scalar("greater_than", _comparable_pair, lambda a, b: a > b, lambda a, b: a > b, objects=True)
    scalar(
        "greater_than_or_equal", _comparable_pair, lambda a, b: a >= b, lambda a, b: a >= b, objects=True
    )

    # Boolean
    scalar("not", _fixed([BOOLEAN], BOOLEAN), lambda a: not a, lambda a: ~a)

    # String functions: vectorized kernels run over whole object arrays
    # (null lanes pre-filled with a sentinel by the expression compiler).
    scalar("lower", _fixed([VARCHAR], VARCHAR), lambda s: s.lower(), _VEC_LOWER, objects=True)
    scalar("upper", _fixed([VARCHAR], VARCHAR), lambda s: s.upper(), _VEC_UPPER, objects=True)
    scalar("length", _fixed([VARCHAR], BIGINT), lambda s: len(s), _VEC_LEN, objects=True)
    scalar(
        "concat", _fixed([VARCHAR, VARCHAR], VARCHAR), lambda a, b: a + b,
        lambda a, b: a + b, objects=True,
    )
    scalar(
        "substr",
        _fixed([VARCHAR, BIGINT, BIGINT], VARCHAR),
        lambda s, start, length: s[int(start) - 1 : int(start) - 1 + int(length)],
        _vec_substr3,
        objects=True,
    )
    scalar(
        "substr",
        _fixed([VARCHAR, BIGINT], VARCHAR),
        lambda s, start: s[int(start) - 1 :],
        _vec_substr2,
        objects=True,
    )
    scalar(
        "strpos", _fixed([VARCHAR, VARCHAR], BIGINT),
        lambda s, sub: s.find(sub) + 1, _VEC_STRPOS, objects=True,
    )
    scalar("trim", _fixed([VARCHAR], VARCHAR), lambda s: s.strip(), _VEC_TRIM, objects=True)
    scalar("ltrim", _fixed([VARCHAR], VARCHAR), lambda s: s.lstrip(), _VEC_LTRIM, objects=True)
    scalar("rtrim", _fixed([VARCHAR], VARCHAR), lambda s: s.rstrip(), _VEC_RTRIM, objects=True)
    scalar(
        "like",
        _fixed([VARCHAR, VARCHAR], BOOLEAN),
        _like_match,
        _vec_like,
        objects=True,
    )

    # Math
    scalar("abs", lambda ts: ts[0] if len(ts) == 1 and ts[0].is_numeric() else None, abs, np.abs)
    scalar("sqrt", _fixed([DOUBLE], DOUBLE), lambda a: float(np.sqrt(a)), np.sqrt)
    scalar("floor", _fixed([DOUBLE], DOUBLE), lambda a: float(np.floor(a)), np.floor)
    scalar("ceil", _fixed([DOUBLE], DOUBLE), lambda a: float(np.ceil(a)), np.ceil)
    scalar("round", _fixed([DOUBLE], DOUBLE), lambda a: float(np.round(a)), np.round)
    scalar("power", _fixed([DOUBLE, DOUBLE], DOUBLE), lambda a, b: float(a) ** float(b))
    scalar("ln", _fixed([DOUBLE], DOUBLE), lambda a: float(np.log(a)), np.log)

    # Casts — strict engine, but explicit CAST is allowed.
    def resolve_cast_to(target: PrestoType):
        def resolve(ts: Sequence[PrestoType]) -> Optional[PrestoType]:
            return target if len(ts) == 1 else None

        return resolve

    scalar("cast_bigint", resolve_cast_to(BIGINT), lambda v: int(v), _VEC_INT, objects=True)
    scalar("cast_integer", resolve_cast_to(INTEGER), lambda v: int(v), _VEC_INT, objects=True)
    scalar("cast_double", resolve_cast_to(DOUBLE), lambda v: float(v), _VEC_FLOAT, objects=True)
    scalar("cast_varchar", resolve_cast_to(VARCHAR), _cast_varchar, _VEC_CAST_VARCHAR, objects=True)
    scalar("cast_boolean", resolve_cast_to(BOOLEAN), _cast_boolean, _VEC_CAST_BOOLEAN, objects=True)
    scalar("cast_date", resolve_cast_to(DATE), lambda v: str(v), _VEC_STR, objects=True)
    scalar("cast_timestamp", resolve_cast_to(TIMESTAMP), lambda v: str(v), _VEC_STR, objects=True)

    # Collection functions
    scalar(
        "cardinality",
        lambda ts: BIGINT if len(ts) == 1 and isinstance(ts[0], (ArrayType, MapType)) else None,
        lambda c: len(c),
    )
    scalar(
        "element_at",
        _resolve_element_at,
        _element_at,
    )
    scalar(
        "contains",
        lambda ts: BOOLEAN if len(ts) == 2 and isinstance(ts[0], ArrayType) else None,
        lambda arr, v: v in arr,
    )
    scalar(
        "array_max",
        lambda ts: ts[0].element_type if len(ts) == 1 and isinstance(ts[0], ArrayType) else None,
        lambda arr: max(arr) if arr else None,
    )
    scalar(
        "map_keys",
        lambda ts: ArrayType(ts[0].key_type) if len(ts) == 1 and isinstance(ts[0], MapType) else None,
        lambda m: list(m.keys()),
    )


@lru_cache(maxsize=512)
def like_regex(pattern: str):
    """Compiled anchored regex for a SQL LIKE pattern (% = run, _ = one)."""
    import re

    return re.compile(
        "^" + re.escape(pattern).replace("%", ".*").replace("_", ".") + "$",
        flags=re.DOTALL,
    )


def _like_match(value: str, pattern: str) -> bool:
    """SQL LIKE: % matches any run, _ matches one character."""
    return like_regex(pattern).match(value) is not None


def _vec_like(values: np.ndarray, patterns: np.ndarray) -> np.ndarray:
    return np.fromiter(
        (like_regex(p).match(v) is not None for v, p in zip(values, patterns)),
        dtype=bool,
        count=len(values),
    )


# Object-array kernels for string functions and casts: each maps a Python
# callable over an object array without per-position Block.get()/null checks
# (the compiler masks nulls before and after).
_VEC_LOWER = np.frompyfunc(str.lower, 1, 1)
_VEC_UPPER = np.frompyfunc(str.upper, 1, 1)
_VEC_LEN = np.frompyfunc(len, 1, 1)
_VEC_TRIM = np.frompyfunc(str.strip, 1, 1)
_VEC_LTRIM = np.frompyfunc(str.lstrip, 1, 1)
_VEC_RTRIM = np.frompyfunc(str.rstrip, 1, 1)
_VEC_STRPOS = np.frompyfunc(lambda s, sub: s.find(sub) + 1, 2, 1)
_VEC_INT = np.frompyfunc(int, 1, 1)
_VEC_FLOAT = np.frompyfunc(float, 1, 1)
_VEC_STR = np.frompyfunc(str, 1, 1)


def _vec_substr3(s: np.ndarray, start: np.ndarray, length: np.ndarray) -> np.ndarray:
    out = np.empty(len(s), dtype=object)
    for i, (v, b, n) in enumerate(zip(s, start, length)):
        begin = int(b) - 1
        out[i] = v[begin : begin + int(n)]
    return out


def _vec_substr2(s: np.ndarray, start: np.ndarray) -> np.ndarray:
    out = np.empty(len(s), dtype=object)
    for i, (v, b) in enumerate(zip(s, start)):
        out[i] = v[int(b) - 1 :]
    return out


def _cast_varchar(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float) and value == int(value):
        return f"{value:.1f}"
    return str(value)


def _cast_boolean(value: Any) -> bool:
    if isinstance(value, str):
        lowered = value.lower()
        if lowered in ("true", "t", "1"):
            return True
        if lowered in ("false", "f", "0"):
            return False
        raise ValueError(f"cannot cast {value!r} to boolean")
    return bool(value)


_VEC_CAST_VARCHAR = np.frompyfunc(_cast_varchar, 1, 1)
_VEC_CAST_BOOLEAN = np.frompyfunc(_cast_boolean, 1, 1)


def _resolve_element_at(ts: Sequence[PrestoType]) -> Optional[PrestoType]:
    if len(ts) != 2:
        return None
    if isinstance(ts[0], ArrayType):
        return ts[0].element_type
    if isinstance(ts[0], MapType):
        return ts[0].value_type
    return None


def _element_at(collection: Any, key: Any) -> Any:
    if isinstance(collection, list):
        index = int(key)
        if index < 1 or index > len(collection):
            return None
        return collection[index - 1]
    return collection.get(key)


# ---------------------------------------------------------------------------
# Built-in aggregate functions
# ---------------------------------------------------------------------------


def _register_builtin_aggregates(registry: FunctionRegistry) -> None:
    def aggregate(name, resolve, create, add, merge, finalize):
        registry.register_aggregate(
            AggregateFunction(name, resolve, create, add, merge, finalize)
        )

    def resolve_count(ts: Sequence[PrestoType]) -> Optional[PrestoType]:
        return BIGINT if len(ts) <= 1 else None

    aggregate(
        "count",
        resolve_count,
        lambda: 0,
        lambda state, args: state + (1 if not args or args[0] is not None else 0),
        lambda a, b: a + b,
        lambda state: state,
    )

    def resolve_numeric_agg(ts: Sequence[PrestoType]) -> Optional[PrestoType]:
        if len(ts) == 1 and ts[0].is_numeric():
            return ts[0]
        return None

    def checked_add(a: Any, b: Any) -> Any:
        # A bigint sum that leaves int64 is Presto's
        # NUMERIC_VALUE_OUT_OF_RANGE, never a Python big integer.
        total = a + b
        if isinstance(total, int) and not -(2**63) <= total < 2**63:
            raise InvalidValueError("bigint sum out of range")
        return total

    aggregate(
        "sum",
        resolve_numeric_agg,
        lambda: None,
        lambda state, args: state
        if args[0] is None
        else (args[0] if state is None else checked_add(state, args[0])),
        lambda a, b: b if a is None else (a if b is None else checked_add(a, b)),
        lambda state: state,
    )

    def resolve_minmax(ts: Sequence[PrestoType]) -> Optional[PrestoType]:
        if len(ts) == 1 and ts[0].is_orderable():
            return ts[0]
        return None

    aggregate(
        "min",
        resolve_minmax,
        lambda: None,
        lambda state, args: state
        if args[0] is None
        else (args[0] if state is None or args[0] < state else state),
        lambda a, b: b if a is None else (a if b is None else min(a, b)),
        lambda state: state,
    )
    aggregate(
        "max",
        resolve_minmax,
        lambda: None,
        lambda state, args: state
        if args[0] is None
        else (args[0] if state is None or args[0] > state else state),
        lambda a, b: b if a is None else (a if b is None else max(a, b)),
        lambda state: state,
    )

    def resolve_avg(ts: Sequence[PrestoType]) -> Optional[PrestoType]:
        if len(ts) == 1 and ts[0].is_numeric():
            return DOUBLE
        return None

    aggregate(
        "avg",
        resolve_avg,
        lambda: (0.0, 0),
        lambda state, args: state if args[0] is None else (state[0] + args[0], state[1] + 1),
        lambda a, b: (a[0] + b[0], a[1] + b[1]),
        lambda state: state[0] / state[1] if state[1] else None,
    )

    def resolve_distinct_count(ts: Sequence[PrestoType]) -> Optional[PrestoType]:
        # The kernel counts the argument's distinct codes, which orders them.
        return BIGINT if len(ts) == 1 and ts[0].is_orderable() else None

    # approx_distinct modeled with an exact set: correctness over memory.
    aggregate(
        "approx_distinct",
        resolve_distinct_count,
        lambda: set(),
        lambda state, args: state if args[0] is None else (state.add(args[0]) or state),
        lambda a, b: a | b,
        lambda state: len(state),
    )

    def resolve_array_agg(ts: Sequence[PrestoType]) -> Optional[PrestoType]:
        return ArrayType(ts[0]) if len(ts) == 1 else None

    aggregate(
        "array_agg",
        resolve_array_agg,
        lambda: [],
        lambda state, args: state + [args[0]] if args[0] is not None else state,
        lambda a, b: a + b,
        lambda state: state,
    )


_DEFAULT_REGISTRY: Optional[FunctionRegistry] = None


def default_registry() -> FunctionRegistry:
    """Process-wide registry; geo plugin functions register here on import."""
    global _DEFAULT_REGISTRY
    if _DEFAULT_REGISTRY is None:
        _DEFAULT_REGISTRY = FunctionRegistry()
    return _DEFAULT_REGISTRY
