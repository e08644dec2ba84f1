"""Table I: the self-contained RowExpression representation.

The table enumerates the five subtypes that replaced the AST-based
expression representation for pushdown.  This bench verifies
the property that makes pushdown work: every subtype — including a
CallExpression with its resolved FunctionHandle — serializes, crosses a
(JSON) boundary, deserializes, re-resolves, and evaluates identically.
"""

from __future__ import annotations

import json

from _harness import WORK_COUNT, gate, run_script
from repro.core.evaluator import Evaluator
from repro.core.blocks import PrimitiveBlock
from repro.core.expressions import (
    CallExpression,
    ConstantExpression,
    LambdaDefinitionExpression,
    SpecialForm,
    SpecialFormExpression,
    VariableReferenceExpression,
    constant,
    expression_from_dict,
    variable,
)
from repro.core.functions import default_registry
from repro.core.types import BIGINT, BOOLEAN, VARCHAR


OUTPUT = "BENCH_table1_rowexpression.json"


def _call(name, args, types):
    handle, _ = default_registry().resolve_scalar(name, types)
    return CallExpression(name, handle, handle.resolved_return_type(), tuple(args))


def table1_expressions():
    """One representative of each Table I subtype."""
    add = _call("add", [variable("x", BIGINT), variable("y", BIGINT)], [BIGINT, BIGINT])
    return [
        ("ConstantExpression", ConstantExpression(1, BIGINT)),
        ("VariableReferenceExpression", VariableReferenceExpression("city_id", BIGINT)),
        ("CallExpression", _call("equal", [variable("c", BIGINT), constant(12, BIGINT)], [BIGINT, BIGINT])),
        (
            "SpecialFormExpression",
            SpecialFormExpression(
                SpecialForm.IN,
                BOOLEAN,
                (variable("s", VARCHAR), constant("a", VARCHAR), constant("b", VARCHAR)),
            ),
        ),
        (
            "LambdaDefinitionExpression",
            LambdaDefinitionExpression(("x", "y"), (BIGINT, BIGINT), add, BIGINT),
        ),
    ]


def round_trip(expression, iterations: int) -> int:
    """How many JSON round trips gave back an expression equal to the original."""
    return sum(
        expression_from_dict(json.loads(json.dumps(expression.to_dict()))) == expression
        for _ in range(iterations)
    )


def connector_side_mask() -> list[bool]:
    """A connector with only the serialized form can re-resolve and run it."""
    expression = _call(
        "equal", [variable("city_id", BIGINT), constant(12, BIGINT)], [BIGINT, BIGINT]
    )
    payload = json.dumps(expression.to_dict())
    restored = expression_from_dict(json.loads(payload))
    evaluator = Evaluator()  # fresh evaluator, as a connector would have
    block = PrimitiveBlock.from_values(BIGINT, [11, 12, 13, 12])
    return [bool(m) for m in evaluator.filter_mask(restored, {"city_id": block}, 4)]


ROUND_TRIPS = 200


def run(smoke: bool) -> dict:
    return {
        "benchmark": "table1_rowexpression",
        "smoke": smoke,
        "subtypes": [
            {
                "expression_type": name,
                "example": expression.display(),
                "serialized_bytes": len(json.dumps(expression.to_dict())),
                "round_trips_equal": round_trip(expression, ROUND_TRIPS),
            }
            for name, expression in table1_expressions()
        ],
        "connector_side_mask": connector_side_mask(),
    }


def gates(report: dict) -> list:
    subtypes = report["subtypes"]
    return [
        gate("Table I subtypes", WORK_COUNT, len(subtypes), "==", 5),
        gate("JSON round trips that gave back an equal expression, fewest over the subtypes",
             WORK_COUNT, min(e["round_trips_equal"] for e in subtypes), "==", ROUND_TRIPS),
        gate("a fresh evaluator runs the deserialized city_id = 12 over [11, 12, 13, 12]",
             WORK_COUNT, report["connector_side_mask"], "==", [False, True, False, True]),
    ]


if __name__ == "__main__":
    raise SystemExit(run_script(__name__))
