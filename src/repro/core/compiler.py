"""Expression compiler: RowExpression trees → reusable DAGs of array kernels.

Presto generates JVM bytecode per expression once and reuses it for every
page; this module is the Python equivalent of that code generation step.
``ExpressionCompiler.compile`` turns an analyzed :class:`RowExpression`
into a :class:`CompiledExpression` — a DAG of kernel objects compiled once
per canonical expression form and cached process-wide — instead of
re-dispatching on the tree shape for every page of every operator.

The compiled lane removes the row interpreter's big bail-outs:

- **null-aware apply** — a call with any null argument no longer drops to a
  per-position Python loop.  The kernel fills null lanes of every argument
  with a type-appropriate sentinel (1 for numerics, so a null-lane divisor
  never trips the division-by-zero check; a surviving value for object
  arrays, so mixed comparisons and casts stay legal), runs the vectorized
  implementation over *all* lanes, and masks the result.
- **string/object kernels** — functions flagged ``vectorized_on_objects``
  (length, upper/lower, substr, concat, trim, LIKE, comparisons, casts) run
  over object-dtype arrays; ``LIKE <constant>`` additionally precompiles
  its anchored regex at expression-compile time.
- **offsets-native varchar kernels** — when arguments arrive as
  :class:`VarcharBlock` (bytes + offsets), the hot string functions skip
  objects entirely: ``length`` reads offset deltas (minus UTF-8
  continuation bytes), comparisons run on padded byte views, ``substr``
  is one gather, ``LIKE`` prunes by its literal byte prefix and only
  decodes surviving rows for the regex, and ``IN`` decides membership
  once per distinct string.  Functions without a native form decode the
  block to the object lane — same results, counted as vectorized.
- **dictionary-aware evaluation** — a deterministic, null-propagating
  subtree over a single variable evaluates on the *dictionary* of a
  :class:`DictionaryBlock` and re-wraps the ids, turning O(rows) work into
  O(distinct) (paper §V's dictionary optimizations applied to expressions).
- **lambdas** — ``transform``/``filter``/``any_match`` run their compiled
  body once per page over every element of every array.

Constant-foldable subtrees are evaluated once at compile time, by their own
kernels on one position, so ``WHERE 1 = 1``-style conjuncts vanish before
any page is scanned.

Every expression the analyzer emits compiles to kernels; what cannot
compile raises here, not on the first page.  The row-at-a-time
interpreter the compiler replaced lives in
``tests/reference/interpreter.py``, the oracle of the differential tests.
"""

from __future__ import annotations

import json
import weakref
from collections import OrderedDict
from typing import Any, Optional

import numpy as np

from repro.common.errors import ExecutionError, PrestoError
from repro.core.blocks import (
    ArrayBlock,
    Block,
    DictionaryBlock,
    PrimitiveBlock,
    RowBlock,
    VarcharBlock,
    _gather_slices,
    _numpy_dtype_for,
    block_from_values,
    constant_block,
    with_extra_nulls,
)
from repro.core.expressions import (
    CallExpression,
    ConstantExpression,
    LambdaDefinitionExpression,
    RowExpression,
    SpecialForm,
    SpecialFormExpression,
    VariableReferenceExpression,
)
from repro.core.functions import FunctionRegistry, ScalarFunction, like_regex
from repro.core.types import BOOLEAN, PrestoType

# Compiled expressions kept per registry, least recently used evicted.
COMPILE_CACHE_SIZE = 256

# What a literal-only subtree's kernels raise while folding: engine errors,
# the functions' arithmetic errors (1 / 0, an int64 overflow) and bad values
# (CAST('x' AS bigint)), a geometry function given the wrong shape (st_x of
# a polygon), and numpy's floating-point warnings when warnings are errors
# (ln(0.0)).  The subtree stays unfolded and raises when it is evaluated,
# as it would have without folding.
_FOLDING_ERRORS = (
    PrestoError,
    ArithmeticError,
    ValueError,
    AttributeError,
    RuntimeWarning,
)


# ---------------------------------------------------------------------------
# Shared array helpers
# ---------------------------------------------------------------------------


def bool_arrays(block: Block) -> tuple[np.ndarray, np.ndarray]:
    """Extract (values, nulls) boolean arrays from a boolean-typed block.

    Fully array-based: dictionary blocks are evaluated on the dictionary
    and gathered through the ids; object arrays avoid per-position
    ``Block.get`` calls.
    """
    block = block.loaded()
    if isinstance(block, DictionaryBlock):
        dict_values, _ = bool_arrays(block.dictionary)
        nulls = block.null_mask()
        safe_ids = np.where(block.ids < 0, 0, block.ids)
        values = np.where(nulls, False, dict_values[safe_ids])
        return values, nulls
    nulls = block.null_mask()
    if isinstance(block, PrimitiveBlock):
        if block.values.dtype != object:
            values = block.values.astype(bool)
        else:
            values = np.fromiter(
                ((not nulls[i]) and bool(v) for i, v in enumerate(block.values)),
                dtype=bool,
                count=block.position_count,
            )
    else:
        values = np.fromiter(
            (
                (not nulls[i]) and bool(block.get(i))
                for i in range(block.position_count)
            ),
            dtype=bool,
            count=block.position_count,
        )
    values = np.where(nulls, False, values)
    return values, nulls


def _sentinel_for(values: np.ndarray, invalid: np.ndarray) -> Any:
    """A fill value for null lanes that keeps the kernel legal on all lanes.

    Numerics use 1 so a null-lane divisor never triggers the
    division-by-zero check; object arrays borrow a surviving value so
    comparisons and casts see a homogeneous, parseable element.
    """
    kind = values.dtype.kind
    if kind == "b":
        return False
    if kind in "iu":
        return 1
    if kind == "f":
        return 1.0
    valid = np.nonzero(~invalid)[0]
    return values[valid[0]] if len(valid) else ""


def _flat(block: Block) -> Block:
    block = block.loaded()
    if isinstance(block, DictionaryBlock):
        return block.decode()
    return block


def _object_form(block: Block, constant: Any, position_count: int) -> Block:
    """``block`` in the object lane: a :class:`VarcharBlock` decoded to a
    ``PrimitiveBlock`` of ``str``.  ``constant`` is the value a constant
    kernel produced it from (``None`` otherwise); a constant fills its
    array from that value instead of decoding every row of its tiled bytes.
    """
    if not isinstance(block, VarcharBlock):
        return block
    if isinstance(constant, str):
        # Slice assignment keeps the str object; np.full would go through a
        # numpy unicode array, which drops trailing NULs.
        values = np.empty(position_count, dtype=object)
        values[:] = constant
        return PrimitiveBlock(block.type, values)
    return block.to_primitive()


# ---------------------------------------------------------------------------
# Offsets-native varchar kernels
# ---------------------------------------------------------------------------

_COMPARISON_OPS = {
    "equal": np.equal,
    "not_equal": np.not_equal,
    "less_than": np.less,
    "less_than_or_equal": np.less_equal,
    "greater_than": np.greater,
    "greater_than_or_equal": np.greater_equal,
}


def _varchar_max_width(block: VarcharBlock) -> int:
    lengths = block.byte_lengths()
    if block.nulls is not None:
        lengths = np.where(block.nulls, 0, lengths)
    return int(lengths.max()) if len(lengths) else 0


def _varchar_compare_constant(
    fn_name: str, block: VarcharBlock, const: str, flipped: bool, nulls: np.ndarray
) -> Optional[np.ndarray]:
    """Compare every row against one literal without padding the literal.

    Equality needs no byte matrix at all (length check + prefix scan);
    ordering compares the block's padded view against a bytes scalar.
    ``flipped`` means the literal was the left operand.
    """
    encoded = const.encode("utf-8")
    if b"\x00" in encoded:
        return None
    if fn_name in ("equal", "not_equal"):
        match = block.exact_match(encoded)
        return match if fn_name == "equal" else ~match
    view = block.fixed_view()
    if view is None:
        return None
    if flipped:
        return _COMPARISON_OPS[fn_name](encoded, view)
    return _COMPARISON_OPS[fn_name](view, encoded)


def _varchar_native(
    fn_name: str,
    return_type: PrestoType,
    blocks: list[Block],
    nulls: np.ndarray,
    position_count: int,
    consts: Optional[list] = None,
) -> Optional[Block]:
    """Offsets-native kernel for a hot string function, or None to fall back.

    These run directly on the VarcharBlock bytes+offsets layout: length
    from offset deltas (minus UTF-8 continuation bytes), comparisons on
    padded byte views (byte order == code-point order), substr as one
    gather over offset arithmetic.  A ``None`` return means "no native
    form": the caller decodes to the object lane, which is also the
    differential oracle.
    """
    if fn_name == "length" and len(blocks) == 1:
        block = blocks[0]
        if not isinstance(block, VarcharBlock):
            return None
        values = block.char_lengths().astype(np.int64, copy=False)
        return PrimitiveBlock(return_type, values, nulls if nulls.any() else None)
    if fn_name in _COMPARISON_OPS and len(blocks) == 2:
        left, right = blocks
        consts = consts or [None, None]
        if isinstance(left, VarcharBlock) and isinstance(consts[1], str):
            values = _varchar_compare_constant(fn_name, left, consts[1], False, nulls)
            if values is not None:
                return PrimitiveBlock(BOOLEAN, values, nulls if nulls.any() else None)
        if isinstance(right, VarcharBlock) and isinstance(consts[0], str):
            values = _varchar_compare_constant(fn_name, right, consts[0], True, nulls)
            if values is not None:
                return PrimitiveBlock(BOOLEAN, values, nulls if nulls.any() else None)
        if not (isinstance(left, VarcharBlock) and isinstance(right, VarcharBlock)):
            return None
        width = max(_varchar_max_width(left), _varchar_max_width(right))
        left_view = left.fixed_view(width)
        right_view = right.fixed_view(width)
        if left_view is None or right_view is None:
            return None  # embedded NULs or too wide: object oracle decides
        values = _COMPARISON_OPS[fn_name](left_view, right_view)
        return PrimitiveBlock(BOOLEAN, values, nulls if nulls.any() else None)
    if fn_name == "substr" and len(blocks) in (2, 3):
        block = blocks[0]
        if not isinstance(block, VarcharBlock) or not block.ascii_only():
            return None
        if not all(
            isinstance(b, PrimitiveBlock) and b.values.dtype.kind in "iu"
            for b in blocks[1:]
        ):
            return None
        starts = blocks[1].values
        valid = ~nulls
        if bool((starts[valid] < 1).any()):
            # Zero/negative starts follow ``functions.substr`` (counted
            # from the end) on the object lane, not byte arithmetic.
            return None
        lengths = block.byte_lengths()
        begin = np.where(nulls, 0, starts - 1)
        begin = np.minimum(begin, lengths)
        if len(blocks) == 3:
            end = np.clip(begin + blocks[2].values, begin, lengths)
        else:
            end = lengths
        data, offsets = _gather_slices(
            block.data, block.offsets[:-1] + begin, end - begin
        )
        return VarcharBlock(
            return_type, data, offsets, nulls if nulls.any() else None
        )
    return None


def _varchar_in_small(block: VarcharBlock, in_list: list) -> Optional[np.ndarray]:
    """Small IN lists: one exact-match scan per needle, OR'd together.

    Cheaper than factorizing the column when the list is short; None
    defers to the factorize path (long lists, non-string needles).
    """
    if len(in_list) > 8 or not all(isinstance(v, str) for v in in_list):
        return None
    matches = np.zeros(block.position_count, dtype=bool)
    for needle in in_list:
        matches |= block.exact_match(needle.encode("utf-8"))
    return matches


def _like_literal_prefix(pattern: str) -> tuple[str, str]:
    """Split a LIKE pattern into (literal prefix, remainder)."""
    for i, ch in enumerate(pattern):
        if ch in "%_":
            return pattern[:i], pattern[i:]
    return pattern, ""


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------


class Kernel:
    """One node of a compiled expression DAG."""

    def run(
        self, bindings: dict[str, Block], position_count: int, stats
    ) -> Block:
        raise NotImplementedError


class ConstantKernel(Kernel):
    def __init__(self, value: Any, presto_type: PrestoType) -> None:
        self.value = value
        self.type = presto_type

    def run(self, bindings, position_count, stats) -> Block:
        return constant_block(self.value, self.type, position_count)


def _constant_of(kernel: Kernel) -> Any:
    """The value a :class:`ConstantKernel` produces; ``None`` for any other."""
    return kernel.value if isinstance(kernel, ConstantKernel) else None


class VariableKernel(Kernel):
    def __init__(self, name: str) -> None:
        self.name = name

    def run(self, bindings, position_count, stats) -> Block:
        block = bindings.get(self.name)
        if block is None:
            raise ExecutionError(f"unbound variable {self.name}")
        return block


class CallKernel(Kernel):
    """Null-aware vectorized function application.

    Runs the vectorized implementation over all lanes with null lanes
    sentinel-filled, then masks the result — no "any null ⇒ Python loop"
    bail-out.  The per-row loop remains only for non-primitive blocks and
    functions without a (type-compatible) vectorized implementation, and
    its positions are counted as row-at-a-time (``expr_positions_fallback``).
    """

    def __init__(
        self,
        fn: ScalarFunction,
        return_type: PrestoType,
        arg_kernels: list[Kernel],
    ) -> None:
        self.fn = fn
        self.return_type = return_type
        self.arg_kernels = arg_kernels
        self._target_dtype = _numpy_dtype_for(return_type)
        self._const_args = [_constant_of(k) for k in arg_kernels]

    def run(self, bindings, position_count, stats) -> Block:
        blocks = [
            _flat(k.run(bindings, position_count, stats)) for k in self.arg_kernels
        ]
        nulls = np.zeros(position_count, dtype=bool)
        for b in blocks:
            nulls = nulls | b.null_mask()
        if position_count and nulls.all():
            return constant_block(None, self.return_type, position_count)
        # A double's inf - inf, 0 * inf, log(0) or overflow is an IEEE
        # value, not an error: every implementation, on either lane, runs
        # under one error state.  The results that are errors (bigint
        # overflow, division or bigint modulo by zero) raise on their own.
        with np.errstate(all="ignore"):
            return self._apply(blocks, nulls, position_count, stats)

    def _apply(self, blocks, nulls, position_count, stats) -> Block:
        fn = self.fn
        if any(isinstance(b, VarcharBlock) for b in blocks):
            native = _varchar_native(
                fn.name,
                self.return_type,
                blocks,
                nulls,
                position_count,
                consts=self._const_args,
            )
            if native is not None:
                if stats is not None:
                    stats.expr_positions_vectorized += position_count
                return native
            # No offsets-native form: decode to the object lane so the
            # ``vectorized_on_objects`` kernels still run whole-array.
            blocks = [
                _object_form(b, const, position_count)
                for b, const in zip(blocks, self._const_args)
            ]
        vector_ok = (
            fn.vectorized is not None
            and all(isinstance(b, PrimitiveBlock) for b in blocks)
            and all(
                b.values.dtype != object or fn.vectorized_on_objects for b in blocks
            )
        )
        if vector_ok:
            any_nulls = bool(nulls.any())
            arrays = []
            for b in blocks:
                values = b.values
                if any_nulls:
                    values = values.copy()
                    values[nulls] = _sentinel_for(values, nulls)
                arrays.append(values)
            result = np.asarray(fn.vectorized(*arrays))
            if self._target_dtype is not object and result.dtype != self._target_dtype:
                result = result.astype(self._target_dtype)
            if stats is not None:
                stats.expr_positions_vectorized += position_count
            return PrimitiveBlock(
                self.return_type, result, nulls if any_nulls else None
            )
        if stats is not None:
            stats.expr_positions_fallback += position_count
        values_out: list[Any] = []
        for i in range(position_count):
            if nulls[i]:
                values_out.append(None)
            else:
                values_out.append(fn.row_fn(*[b.get(i) for b in blocks]))
        return block_from_values(self.return_type, values_out)


class LikeConstantKernel(Kernel):
    """``value LIKE 'pattern'`` with the anchored regex compiled once."""

    def __init__(self, value_kernel: Kernel, pattern: str) -> None:
        self.value_kernel = value_kernel
        self.pattern = pattern
        self.regex = like_regex(pattern)
        prefix, remainder = _like_literal_prefix(pattern)
        self.prefix_bytes = prefix.encode("utf-8")
        # remainder == "" means the pattern is a literal; "%" means a pure
        # prefix pattern — both skip the regex entirely on VarcharBlocks.
        self.remainder = remainder

    def run(self, bindings, position_count, stats) -> Block:
        block = _flat(self.value_kernel.run(bindings, position_count, stats))
        nulls = block.null_mask()
        match = self.regex.match
        if isinstance(block, VarcharBlock):
            # Prune by the literal prefix first (a byte-exact startswith);
            # only surviving rows are decoded for the regex, if any.
            candidates = block.prefix_mask(self.prefix_bytes) & ~nulls
            if self.remainder == "":
                values = candidates & (
                    block.byte_lengths() == len(self.prefix_bytes)
                )
            elif self.remainder == "%":
                values = candidates
            else:
                values = np.zeros(position_count, dtype=bool)
                survivors = np.flatnonzero(candidates)
                if len(survivors):
                    decoded = block.take(survivors).to_object_array()
                    values[survivors] = np.fromiter(
                        (match(v) is not None for v in decoded),
                        dtype=bool,
                        count=len(survivors),
                    )
            if stats is not None:
                stats.expr_positions_vectorized += position_count
            return PrimitiveBlock(
                BOOLEAN, values, nulls.copy() if nulls.any() else None
            )
        if isinstance(block, PrimitiveBlock):
            values = np.fromiter(
                (
                    isinstance(v, str) and match(v) is not None
                    for v in block.values
                ),
                dtype=bool,
                count=position_count,
            )
            if stats is not None:
                stats.expr_positions_vectorized += position_count
        else:
            values = np.fromiter(
                (
                    (not nulls[i])
                    and isinstance(block.get(i), str)
                    and match(block.get(i)) is not None
                    for i in range(position_count)
                ),
                dtype=bool,
                count=position_count,
            )
            if stats is not None:
                stats.expr_positions_fallback += position_count
        values = np.where(nulls, False, values)
        return PrimitiveBlock(BOOLEAN, values, nulls.copy() if nulls.any() else None)


class KleeneKernel(Kernel):
    """AND/OR under SQL three-valued logic, whole-array."""

    def __init__(self, arg_kernels: list[Kernel], is_and: bool) -> None:
        self.arg_kernels = arg_kernels
        self.is_and = is_and

    def run(self, bindings, position_count, stats) -> Block:
        is_and = self.is_and
        result = np.full(position_count, is_and, dtype=bool)
        result_nulls = np.zeros(position_count, dtype=bool)
        for kernel in self.arg_kernels:
            block = kernel.run(bindings, position_count, stats)
            values, nulls = bool_arrays(block)
            if is_and:
                # false wins over null; null wins over true
                result_nulls = (result_nulls & (values | nulls)) | (nulls & result)
                result = result & (values | nulls)
            else:
                result_nulls = (result_nulls & ~(values & ~nulls)) | (nulls & ~result)
                result = result | (values & ~nulls)
        result = result & ~result_nulls
        if stats is not None:
            stats.expr_positions_vectorized += position_count
        return PrimitiveBlock(
            BOOLEAN, result, result_nulls if result_nulls.any() else None
        )


class NotKernel(Kernel):
    def __init__(self, arg_kernel: Kernel) -> None:
        self.arg_kernel = arg_kernel

    def run(self, bindings, position_count, stats) -> Block:
        block = self.arg_kernel.run(bindings, position_count, stats)
        values, nulls = bool_arrays(block)
        if stats is not None:
            stats.expr_positions_vectorized += position_count
        return PrimitiveBlock(BOOLEAN, ~values, nulls if nulls.any() else None)


class IsNullKernel(Kernel):
    def __init__(self, arg_kernel: Kernel) -> None:
        self.arg_kernel = arg_kernel

    def run(self, bindings, position_count, stats) -> Block:
        block = self.arg_kernel.run(bindings, position_count, stats).loaded()
        if stats is not None:
            stats.expr_positions_vectorized += position_count
        return PrimitiveBlock(BOOLEAN, block.null_mask().copy())


class InConstantKernel(Kernel):
    """``value IN (constants...)`` via array membership."""

    def __init__(
        self, value_kernel: Kernel, in_list: list[Any], has_null_candidate: bool
    ) -> None:
        self.value_kernel = value_kernel
        self.in_list = in_list
        self.in_set = set(in_list)
        self.in_array = np.array(in_list) if in_list else np.array([], dtype=object)
        self.has_null_candidate = has_null_candidate

    def run(self, bindings, position_count, stats) -> Block:
        block = _flat(self.value_kernel.run(bindings, position_count, stats))
        nulls = block.null_mask().copy()
        if isinstance(block, PrimitiveBlock) and block.values.dtype != object:
            matches = np.isin(block.values, self.in_array)
        elif isinstance(block, VarcharBlock):
            matches = _varchar_in_small(block, self.in_list)
            if matches is None:
                # Larger lists: membership decided once per *distinct*
                # string, then gathered.
                codes, uniques = block.factorize()
                in_set = self.in_set
                table = np.zeros(len(uniques) + 1, dtype=bool)
                for code, unique in enumerate(uniques):
                    table[code] = unique in in_set
                matches = table[np.where(codes < 0, len(uniques), codes)]
        elif isinstance(block, PrimitiveBlock):
            in_set = self.in_set
            matches = np.fromiter(
                (
                    (not nulls[i]) and v in in_set
                    for i, v in enumerate(block.values)
                ),
                dtype=bool,
                count=position_count,
            )
        else:
            in_set = self.in_set
            matches = np.fromiter(
                (
                    (not nulls[i]) and block.get(i) in in_set
                    for i in range(position_count)
                ),
                dtype=bool,
                count=position_count,
            )
        if self.has_null_candidate:
            # value NOT IN (..., NULL) is null when no match
            nulls = nulls | (~matches)
        matches = matches & ~nulls
        if stats is not None:
            stats.expr_positions_vectorized += position_count
        return PrimitiveBlock(BOOLEAN, matches, nulls if nulls.any() else None)


# The binding under which InKernel hands the value to its equal kernels: a
# key that no variable name, always a string, can equal.
_IN_VALUE = object()


class InKernel(Kernel):
    """``value IN (expressions...)``: the value runs once, then an OR of
    ``value = candidate`` kernels decides under Kleene logic (NULL when
    nothing matches and some comparison is NULL)."""

    def __init__(self, value_kernel: Kernel, any_equal: Kernel) -> None:
        self.value_kernel = value_kernel
        self.any_equal = any_equal

    def run(self, bindings, position_count, stats) -> Block:
        value = self.value_kernel.run(bindings, position_count, stats)
        return self.any_equal.run(
            {**bindings, _IN_VALUE: value}, position_count, stats
        )


class IfKernel(Kernel):
    def __init__(
        self,
        condition: Kernel,
        then_kernel: Kernel,
        else_kernel: Kernel,
        return_type: PrestoType,
    ) -> None:
        self.condition = condition
        self.then_kernel = then_kernel
        self.else_kernel = else_kernel
        self.return_type = return_type
        self._target_dtype = _numpy_dtype_for(return_type)
        self._then_constant = _constant_of(then_kernel)
        self._else_constant = _constant_of(else_kernel)

    def run(self, bindings, position_count, stats) -> Block:
        condition = self.condition.run(bindings, position_count, stats)
        cond_values, cond_nulls = bool_arrays(condition)
        take_then = cond_values & ~cond_nulls
        then_block = _object_form(
            _flat(self.then_kernel.run(bindings, position_count, stats)),
            self._then_constant,
            position_count,
        )
        else_block = _object_form(
            _flat(self.else_kernel.run(bindings, position_count, stats)),
            self._else_constant,
            position_count,
        )
        if isinstance(then_block, PrimitiveBlock) and isinstance(
            else_block, PrimitiveBlock
        ):
            then_values, else_values = then_block.values, else_block.values
            if self._target_dtype is object:
                if then_values.dtype != object:
                    then_values = then_values.astype(object)
                if else_values.dtype != object:
                    else_values = else_values.astype(object)
            values = np.where(take_then, then_values, else_values)
            if self._target_dtype is not object and values.dtype != self._target_dtype:
                values = values.astype(self._target_dtype)
            nulls = np.where(take_then, then_block.null_mask(), else_block.null_mask())
            if stats is not None:
                stats.expr_positions_vectorized += position_count
            return PrimitiveBlock(
                self.return_type, values, nulls if nulls.any() else None
            )
        if stats is not None:
            stats.expr_positions_fallback += position_count
        values_out = [
            then_block.get(i) if take_then[i] else else_block.get(i)
            for i in range(position_count)
        ]
        return block_from_values(self.return_type, values_out)


class DereferenceKernel(Kernel):
    """Struct field access; O(1) on RowBlocks via the child block."""

    def __init__(
        self, base_kernel: Kernel, field_name: str, return_type: PrestoType
    ) -> None:
        self.base_kernel = base_kernel
        self.field_name = field_name
        self.return_type = return_type

    def run(self, bindings, position_count, stats) -> Block:
        base = self.base_kernel.run(bindings, position_count, stats).loaded()
        if isinstance(base, RowBlock):
            if base.has_field(self.field_name):
                field_block = base.field(self.field_name)
                return with_extra_nulls(field_block, base.null_mask())
            # Schema evolution: newly added field absent from old data → null.
            return constant_block(None, self.return_type, position_count)
        values = []
        for i in range(position_count):
            row_value = base.get(i)
            values.append(None if row_value is None else row_value.get(self.field_name))
        return block_from_values(self.return_type, values)


class DictionaryKernel(Kernel):
    """Evaluate a single-variable subtree on the dictionary, keep the ids.

    Only wrapped around null-propagating deterministic subtrees, so a null
    id (< 0) or a null dictionary entry stays null through the rewrap.
    """

    def __init__(self, variable_name: str, inner: Kernel) -> None:
        self.variable_name = variable_name
        self.inner = inner

    def run(self, bindings, position_count, stats) -> Block:
        block = bindings.get(self.variable_name)
        if block is not None:
            block = block.loaded()
        if isinstance(block, DictionaryBlock):
            dictionary = block.dictionary
            inner_block = self.inner.run(
                {self.variable_name: dictionary}, dictionary.position_count, stats
            )
            inner_block = _flat(inner_block)
            if isinstance(inner_block, (PrimitiveBlock, VarcharBlock)):
                if stats is not None:
                    stats.expr_positions_dictionary_saved += max(
                        0, position_count - dictionary.position_count
                    )
                return DictionaryBlock(inner_block, block.ids)
        return self.inner.run(bindings, position_count, stats)


class LambdaKernel(Kernel):
    """``transform``/``filter``/``any_match`` over an array column.

    The compiled body runs once over the flattened elements of every
    non-null array, with each captured outer column gathered to its
    elements' rows; ``filter`` and ``any_match`` then reduce per row.
    ``any_match`` is TRUE when some element matches, else NULL when the
    body is NULL for some element, else FALSE (an empty array).
    """

    def __init__(
        self, call: CallExpression, array_kernel: Kernel, body_kernel: Kernel
    ) -> None:
        lam = call.arguments[1]
        self.name = call.function_handle.name
        self.return_type = call.type
        self.parameter = lam.argument_names[0]
        self.captured = [v.name for v in lam.body.variables() if v.name != self.parameter]
        self.array_kernel = array_kernel
        self.body_kernel = body_kernel

    def run(self, bindings, position_count, stats) -> Block:
        arrays = self.array_kernel.run(bindings, position_count, stats).loaded()
        if not isinstance(arrays, ArrayBlock):  # an all-NULL constant block
            arrays = block_from_values(arrays.type, arrays.to_list())
        nulls = arrays.null_mask()
        # A NULL array holds no elements, so every element has a live row.
        rows = np.repeat(np.arange(position_count), np.diff(arrays.offsets))
        inner = {
            name: bindings[name].take(rows) for name in self.captured if name in bindings
        }
        inner[self.parameter] = arrays.elements
        body = _flat(self.body_kernel.run(inner, len(rows), stats))
        if stats is not None:
            stats.expr_positions_vectorized += position_count
        array_nulls = nulls if nulls.any() else None
        if self.name == "transform":
            return ArrayBlock(self.return_type, arrays.offsets, body, array_nulls)
        matched, unknown = bool_arrays(body)
        if self.name == "filter":
            kept = np.zeros(position_count + 1, dtype=np.int64)
            np.cumsum(np.bincount(rows[matched], minlength=position_count), out=kept[1:])
            return ArrayBlock(
                self.return_type,
                kept,
                arrays.elements.take(np.flatnonzero(matched)),
                array_nulls,
            )
        any_matched = np.bincount(rows[matched], minlength=position_count) > 0
        result_nulls = nulls | (
            ~any_matched & (np.bincount(rows[unknown], minlength=position_count) > 0)
        )
        return PrimitiveBlock(
            BOOLEAN, any_matched, result_nulls if result_nulls.any() else None
        )


# ---------------------------------------------------------------------------
# Compiled expression + compiler
# ---------------------------------------------------------------------------


class CompiledExpression:
    """A RowExpression compiled to a kernel DAG, reusable across pages."""

    def __init__(self, expression: RowExpression, kernel: Kernel) -> None:
        self.expression = expression  # post-folding form
        self.kernel = kernel

    def evaluate(
        self, bindings: dict[str, Block], position_count: int, stats=None
    ) -> Block:
        return self.kernel.run(bindings, position_count, stats)

    def constant_value(self) -> tuple[bool, Any]:
        """(is_constant, value) after folding."""
        if isinstance(self.kernel, ConstantKernel):
            return True, self.kernel.value
        return False, None

    def is_always_true(self) -> bool:
        constant, value = self.constant_value()
        return constant and value is True


class ExpressionCompiler:
    """Compiles RowExpressions for one FunctionRegistry."""

    def __init__(self, registry: FunctionRegistry) -> None:
        self._registry = registry

    def compile(self, expression: RowExpression) -> CompiledExpression:
        expression = self.fold(expression)
        return CompiledExpression(
            expression, self._compile(expression, allow_dictionary=True)
        )

    # -- constant folding ---------------------------------------------------

    def fold(self, expression: RowExpression) -> RowExpression:
        """Evaluate literal-only subtrees once; prune trivial AND/OR terms."""
        if isinstance(
            expression,
            (ConstantExpression, VariableReferenceExpression, LambdaDefinitionExpression),
        ):
            return expression
        if isinstance(expression, CallExpression):
            arguments = tuple(self.fold(a) for a in expression.arguments)
            folded = CallExpression(
                expression.display_name,
                expression.function_handle,
                expression.type,
                arguments,
            )
            return self._fold_whole(folded)
        if isinstance(expression, SpecialFormExpression):
            arguments = tuple(self.fold(a) for a in expression.arguments)
            form = expression.form
            if form is SpecialForm.AND or form is SpecialForm.OR:
                is_and = form is SpecialForm.AND
                absorbing, identity = (False, True) if is_and else (True, False)
                kept: list[RowExpression] = []
                for argument in arguments:
                    if isinstance(argument, ConstantExpression):
                        if argument.value is identity:
                            continue  # `WHERE 1 = 1` conjuncts vanish here
                        if argument.value is absorbing:
                            return ConstantExpression(absorbing, expression.type)
                        # a NULL constant cannot be pruned under Kleene logic
                    kept.append(argument)
                if not kept:
                    return ConstantExpression(identity, expression.type)
                if len(kept) == 1 and kept[0].type == expression.type:
                    return kept[0]
                return SpecialFormExpression(form, expression.type, tuple(kept))
            if form is SpecialForm.IF and isinstance(arguments[0], ConstantExpression):
                if arguments[0].value is True:
                    return arguments[1]
                if len(arguments) > 2:
                    return arguments[2]
                return ConstantExpression(None, expression.type)
            folded = SpecialFormExpression(form, expression.type, arguments)
            return self._fold_whole(folded)
        return expression

    def _fold_whole(self, expression: RowExpression) -> RowExpression:
        """Replace a variable-free deterministic subtree with its value,
        computed by the subtree's own kernels on one position."""
        if not self._literal_only(expression):
            return expression
        kernel = self._compile(expression, allow_dictionary=False)
        try:
            value = kernel.run({}, 1, None).get(0)
        except _FOLDING_ERRORS:
            # Errors (division by zero, bad casts) must surface at run
            # time, from the same kernels; leave unfolded.
            return expression
        return ConstantExpression(value, expression.type)

    def _literal_only(self, expression: RowExpression) -> bool:
        nodes = list(expression.walk())
        # Variables and lambdas first: a call taking a lambda has no
        # registry entry to look up (its handle names a ``function`` type).
        if any(
            isinstance(node, (VariableReferenceExpression, LambdaDefinitionExpression))
            for node in nodes
        ):
            return False
        return all(
            self._registry.implementation_for(node.function_handle).deterministic
            for node in nodes
            if isinstance(node, CallExpression)
        )

    # -- kernel construction ------------------------------------------------

    def _compile(self, expression: RowExpression, allow_dictionary: bool) -> Kernel:
        if isinstance(expression, ConstantExpression):
            return ConstantKernel(expression.value, expression.type)
        if isinstance(expression, VariableReferenceExpression):
            return VariableKernel(expression.name)
        if allow_dictionary and self._dictionary_candidate(expression):
            variables = expression.variables()
            inner = self._compile_node(expression, allow_dictionary=False)
            return DictionaryKernel(variables[0].name, inner)
        return self._compile_node(expression, allow_dictionary)

    def _compile_node(self, expression: RowExpression, allow_dictionary: bool) -> Kernel:
        if isinstance(expression, CallExpression):
            return self._compile_call(expression, allow_dictionary)
        if isinstance(expression, SpecialFormExpression):
            return self._compile_special(expression, allow_dictionary)
        if isinstance(expression, LambdaDefinitionExpression):
            raise ExecutionError("lambda must appear as a function argument")
        raise ExecutionError(f"cannot compile {type(expression).__name__}")

    def _compile_call(self, call: CallExpression, allow_dictionary: bool) -> Kernel:
        if any(isinstance(a, LambdaDefinitionExpression) for a in call.arguments):
            return self._compile_lambda_call(call, allow_dictionary)
        fn = self._registry.implementation_for(call.function_handle)
        if (
            call.function_handle.name == "like"
            and len(call.arguments) == 2
            and isinstance(call.arguments[1], ConstantExpression)
            and isinstance(call.arguments[1].value, str)
        ):
            return LikeConstantKernel(
                self._compile(call.arguments[0], allow_dictionary),
                call.arguments[1].value,
            )
        return CallKernel(
            fn,
            call.type,
            [self._compile(a, allow_dictionary) for a in call.arguments],
        )

    def _compile_lambda_call(
        self, call: CallExpression, allow_dictionary: bool
    ) -> Kernel:
        name = call.function_handle.name
        array, lam = call.arguments
        if name not in ("transform", "filter", "any_match") or not isinstance(
            lam, LambdaDefinitionExpression
        ):
            raise ExecutionError(f"{name}() does not take an array and a lambda")
        return LambdaKernel(
            call,
            self._compile(array, allow_dictionary),
            self._compile(lam.body, allow_dictionary),
        )

    def _compile_special(
        self, expression: SpecialFormExpression, allow_dictionary: bool
    ) -> Kernel:
        form = expression.form
        arguments = expression.arguments
        compile_ = lambda e: self._compile(e, allow_dictionary)  # noqa: E731
        if form is SpecialForm.AND:
            return KleeneKernel([compile_(a) for a in arguments], is_and=True)
        if form is SpecialForm.OR:
            return KleeneKernel([compile_(a) for a in arguments], is_and=False)
        if form is SpecialForm.NOT:
            return NotKernel(compile_(arguments[0]))
        if form is SpecialForm.IS_NULL:
            return IsNullKernel(compile_(arguments[0]))
        if form is SpecialForm.IN:
            value, candidates = arguments[0], arguments[1:]
            # Nested values (lists, dicts) do not hash: they compare by equal.
            if not value.type.is_nested() and all(
                isinstance(c, ConstantExpression) for c in candidates
            ):
                return InConstantKernel(
                    compile_(value),
                    [c.value for c in candidates if c.value is not None],
                    has_null_candidate=any(c.value is None for c in candidates),
                )
            equals = [
                CallKernel(
                    self._registry.resolve_scalar("equal", [value.type, c.type])[1],
                    BOOLEAN,
                    [VariableKernel(_IN_VALUE), compile_(c)],
                )
                for c in candidates
            ]
            return InKernel(compile_(value), KleeneKernel(equals, is_and=False))
        if form is SpecialForm.IF:
            else_kernel: Kernel
            if len(arguments) > 2:
                else_kernel = compile_(arguments[2])
            else:
                else_kernel = ConstantKernel(None, expression.type)
            return IfKernel(
                compile_(arguments[0]),
                compile_(arguments[1]),
                else_kernel,
                expression.type,
            )
        if form is SpecialForm.DEREFERENCE:
            if not isinstance(arguments[1], ConstantExpression):
                raise ExecutionError("DEREFERENCE field name must be constant")
            return DereferenceKernel(
                compile_(arguments[0]), arguments[1].value, expression.type
            )
        raise ExecutionError(f"unsupported special form {form}")

    # -- dictionary candidates ----------------------------------------------

    def _dictionary_candidate(self, expression: RowExpression) -> bool:
        if len(expression.variables()) != 1:
            return False
        safe, has_work = self._dictionary_safe(expression)
        return safe and has_work

    def _dictionary_safe(self, expression: RowExpression) -> tuple[bool, bool]:
        """(safe, has_work): safe ⇔ deterministic and null-propagating."""
        if isinstance(expression, VariableReferenceExpression):
            return True, False
        if isinstance(expression, ConstantExpression):
            return expression.value is not None, False
        if isinstance(expression, CallExpression):
            if any(isinstance(a, LambdaDefinitionExpression) for a in expression.arguments):
                return False, False
            if not self._registry.implementation_for(expression.function_handle).deterministic:
                return False, False
            for argument in expression.arguments:
                safe, _ = self._dictionary_safe(argument)
                if not safe:
                    return False, False
            return True, True
        if isinstance(expression, SpecialFormExpression):
            if expression.form is SpecialForm.NOT:
                safe, has_work = self._dictionary_safe(expression.arguments[0])
                return safe, has_work
            if expression.form is SpecialForm.IN and all(
                isinstance(c, ConstantExpression) for c in expression.arguments[1:]
            ):
                safe, _ = self._dictionary_safe(expression.arguments[0])
                return safe, True
            # IS_NULL / IF / AND / OR map null inputs to non-null
            # outputs and must see the real per-position null mask.
            return False, False
        return False, False


# ---------------------------------------------------------------------------
# Process-wide compile cache (per registry, keyed on canonical form)
# ---------------------------------------------------------------------------


_SHARED_CACHE: "weakref.WeakKeyDictionary[FunctionRegistry, OrderedDict]" = (
    weakref.WeakKeyDictionary()
)


def canonical_form(expression: RowExpression) -> str:
    """Stable serialization used as the compile-cache key."""
    return json.dumps(
        expression.to_dict(), sort_keys=True, separators=(",", ":"), default=repr
    )


def compile_cached(
    registry: FunctionRegistry, expression: RowExpression
) -> CompiledExpression:
    """Compile ``expression`` once per canonical form and registry."""
    cache = _SHARED_CACHE.get(registry)
    if cache is None:
        cache = OrderedDict()
        _SHARED_CACHE[registry] = cache
    key = canonical_form(expression)
    compiled = cache.get(key)
    if compiled is not None:
        cache.move_to_end(key)
        return compiled
    compiled = ExpressionCompiler(registry).compile(expression)
    cache[key] = compiled
    while len(cache) > COMPILE_CACHE_SIZE:
        cache.popitem(last=False)
    return compiled
