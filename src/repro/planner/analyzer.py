"""Semantic analysis: AST → logical plan over RowExpressions.

"Analyzer generates logical plan from Abstract Syntax Tree" (section III).
The analyzer resolves ``catalog.schema.table`` names through the catalog
registry, binds identifiers to columns (including nested struct field
dereference like ``base.city_id``), type-checks every expression against
the strict type system, extracts aggregates, and emits the initial plan:

    TableScan → Filter → [Project → Aggregation] → Project
      → [Sort/TopN] → [Limit] → Output
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dataclass_field
from typing import Optional, Sequence

from repro.common.errors import SemanticError
from repro.connectors.spi import Catalog, ConnectorTableHandle
from repro.core.expressions import (
    CallExpression,
    ConstantExpression,
    RowExpression,
    SpecialForm,
    SpecialFormExpression,
    VariableReferenceExpression,
    and_,
    dereference,
    not_,
)
from repro.core.functions import FunctionRegistry, default_registry
from repro.core.types import (
    BIGINT,
    BOOLEAN,
    DOUBLE,
    PrestoType,
    RowType,
    UNKNOWN,
    VARCHAR,
    common_super_type,
    parse_type,
)
from repro.planner.plan import (
    Aggregation,
    AggregationNode,
    AggregationStep,
    FilterNode,
    JoinNode,
    LimitNode,
    OutputNode,
    PlanNode,
    ProjectNode,
    SortNode,
    TableScanNode,
    ValuesNode,
)
from repro.sql import ast


@dataclass
class Session:
    """Per-query session: default namespace and session properties.

    ``properties`` reproduces Presto session properties; the one the paper
    highlights (section XII.A) is ``join_distribution_type`` which selects
    broadcast vs partitioned hash joins.
    """

    catalog: Optional[str] = None
    schema: Optional[str] = None
    user: str = "user"
    properties: dict = dataclass_field(default_factory=dict)


@dataclass(frozen=True)
class Field:
    """One resolvable column in a scope."""

    name: Optional[str]
    relation_alias: Optional[str]
    variable: VariableReferenceExpression


class Scope:
    """Name-resolution scope over the current relation's fields."""

    def __init__(self, fields: Sequence[Field]) -> None:
        self.fields = list(fields)

    def resolve(self, parts: tuple[str, ...]) -> RowExpression:
        """Resolve a dotted identifier to a variable + dereference chain."""
        # Qualified: alias.column[.subfield...]
        if len(parts) >= 2:
            matches = [
                f
                for f in self.fields
                if f.relation_alias == parts[0] and f.name == parts[1]
            ]
            if len(matches) == 1:
                return _apply_dereferences(matches[0].variable, parts[2:])
            if len(matches) > 1:
                raise SemanticError(f"ambiguous column {'.'.join(parts[:2])!r}")
        # Unqualified: column[.subfield...]
        matches = [f for f in self.fields if f.name == parts[0]]
        if len(matches) == 1:
            return _apply_dereferences(matches[0].variable, parts[1:])
        if len(matches) > 1:
            raise SemanticError(f"ambiguous column {parts[0]!r}")
        raise SemanticError(f"column {'.'.join(parts)!r} cannot be resolved")

    def star_fields(self, qualifier: Optional[str] = None) -> list[Field]:
        if qualifier is None:
            return list(self.fields)
        selected = [f for f in self.fields if f.relation_alias == qualifier]
        if not selected:
            raise SemanticError(f"relation {qualifier!r} not found for *")
        return selected


def _apply_dereferences(
    base: RowExpression, field_names: Sequence[str]
) -> RowExpression:
    expression = base
    for field_name in field_names:
        base_type = expression.type
        if not isinstance(base_type, RowType):
            raise SemanticError(
                f"cannot dereference field {field_name!r} from type {base_type.display()}"
            )
        if not base_type.has_field(field_name):
            raise SemanticError(
                f"struct {base_type.display()} has no field {field_name!r}"
            )
        expression = dereference(expression, field_name, base_type.field_type(field_name))
    return expression


class Analyzer:
    """Lowers one parsed :class:`~repro.sql.ast.Query` to a logical plan."""

    def __init__(
        self,
        catalog: Catalog,
        session: Optional[Session] = None,
        registry: Optional[FunctionRegistry] = None,
    ) -> None:
        self._catalog = catalog
        self._session = session or Session()
        self._registry = registry or default_registry()
        self._counter = itertools.count()

    # -- entry point -----------------------------------------------------------

    def analyze(self, query: ast.Query) -> OutputNode:
        node, fields, names = self._plan_query(query)
        return OutputNode(source=node, column_names=tuple(names))

    # -- relation planning ---------------------------------------------------------

    def _plan_query(
        self, query: ast.Query
    ) -> tuple[PlanNode, list[Field], list[str]]:
        """Plan a query; returns (plan, output fields, output column names)."""
        if query.from_relation is not None:
            node, scope = self._plan_relation(query.from_relation)
        else:
            values = ValuesNode(output_variables=(), rows=((),))
            node, scope = values, Scope([])

        if query.where is not None:
            predicate = self._lower(query.where, scope, allow_aggregates=False)
            self._require_boolean(predicate, "WHERE")
            node = FilterNode(source=node, predicate=predicate)

        aggregates = _AggregateCollector(self, scope)
        group_key_asts = self._expand_group_by(query)
        is_aggregated = bool(group_key_asts) or _contains_aggregate(
            self._registry,
            [i.expression for i in query.select_items]
            + ([query.having] if query.having else []),
        )

        if is_aggregated:
            node, post_scope, key_map = self._plan_aggregation(
                node, scope, group_key_asts, query, aggregates
            )
            lower_output = lambda e: aggregates.lower_post_aggregation(e, key_map)
        else:
            if query.having is not None:
                raise SemanticError("HAVING requires GROUP BY or aggregates")
            lower_output = lambda e: self._lower(e, scope, allow_aggregates=False)

        # -- SELECT projection -----------------------------------------------
        assignments: list[tuple[VariableReferenceExpression, RowExpression]] = []
        output_names: list[str] = []
        output_fields: list[Field] = []
        select_exprs_lowered: list[RowExpression] = []
        for item in query.select_items:
            if isinstance(item.expression, ast.Star):
                if is_aggregated:
                    raise SemanticError("SELECT * cannot be combined with GROUP BY")
                for f in scope.star_fields(item.expression.qualifier):
                    variable = self._new_variable(f.name or "col", f.variable.type)
                    assignments.append((variable, f.variable))
                    output_names.append(f.name or variable.name)
                    output_fields.append(Field(f.name, None, variable))
                    select_exprs_lowered.append(f.variable)
                continue
            lowered = lower_output(item.expression)
            name = item.alias or _derive_name(item.expression)
            variable = self._new_variable(name or "expr", lowered.type)
            assignments.append((variable, lowered))
            output_names.append(name or variable.name)
            output_fields.append(Field(name, None, variable))
            select_exprs_lowered.append(lowered)

        # -- ORDER BY (may add hidden sort columns) ----------------------------
        order_specs: list[tuple[VariableReferenceExpression, bool]] = []
        hidden_count = 0
        for order_item in query.order_by:
            target = self._resolve_order_expression(
                order_item.expression, query, output_fields, lower_output
            )
            if isinstance(target, int):
                order_variable = assignments[target][0]
            else:
                matching = [
                    v for (v, e) in assignments if e == target
                ]
                if matching:
                    order_variable = matching[0]
                else:
                    order_variable = self._new_variable("sortkey", target.type)
                    assignments.append((order_variable, target))
                    hidden_count += 1
            self._require_orderable(order_variable.type, "ORDER BY")
            order_specs.append((order_variable, order_item.ascending))

        node = ProjectNode(source=node, assignments=tuple(assignments))

        if query.distinct:
            if hidden_count:
                raise SemanticError(
                    "ORDER BY expressions must appear in SELECT list when DISTINCT is used"
                )
            for variable in node.outputs:
                self._require_orderable(variable.type, "SELECT DISTINCT")
            node = AggregationNode(
                source=node,
                group_keys=node.outputs,
                aggregations=(),
                step=AggregationStep.SINGLE,
            )

        if order_specs:
            node = SortNode(source=node, order_by=tuple(order_specs))

        if query.limit is not None:
            node = LimitNode(source=node, count=query.limit)

        if hidden_count:
            visible = node.outputs[: len(output_names)]
            node = ProjectNode(
                source=node, assignments=tuple((v, v) for v in visible)
            )

        if query.unions:
            node, output_fields = self._plan_union(
                node, output_names, query.unions
            )

        return node, output_fields, output_names

    def _plan_union(
        self,
        first: PlanNode,
        output_names: list[str],
        unions: tuple,
    ) -> tuple[PlanNode, list[Field]]:
        """Combine UNION branches onto shared output variables."""
        from repro.planner.plan import UnionNode

        branches: list[PlanNode] = [first]
        any_distinct = False
        for branch_query, branch_distinct in unions:
            branch_node, _, branch_names = self._plan_query(branch_query)
            if len(branch_names) != len(output_names):
                raise SemanticError(
                    f"UNION branches have {len(branch_names)} and "
                    f"{len(output_names)} columns"
                )
            branches.append(branch_node)
            any_distinct = any_distinct or branch_distinct

        column_types = [
            _common_type(
                [branch.outputs[position].type for branch in branches],
                f"UNION column {position + 1}",
            )
            for position in range(len(output_names))
        ]

        shared = tuple(
            self._new_variable(output_names[i] or "col", column_types[i])
            for i in range(len(output_names))
        )
        projected = tuple(
            ProjectNode(
                source=branch,
                assignments=tuple(
                    (variable, branch.outputs[i])
                    for i, variable in enumerate(shared)
                ),
            )
            for branch in branches
        )
        node: PlanNode = UnionNode(union_sources=projected, output_variables=shared)
        if any_distinct:
            for presto_type in column_types:
                self._require_orderable(presto_type, "UNION")
            node = AggregationNode(
                source=node,
                group_keys=shared,
                aggregations=(),
                step=AggregationStep.SINGLE,
            )
        fields = [
            Field(output_names[i], None, variable) for i, variable in enumerate(shared)
        ]
        return node, fields

    def _plan_relation(self, relation: ast.Relation) -> tuple[PlanNode, Scope]:
        if isinstance(relation, ast.TableReference):
            return self._plan_table(relation)
        if isinstance(relation, ast.SubqueryRelation):
            node, fields, names = self._plan_query(relation.query)
            scope_fields = [
                Field(name, relation.alias, variable.variable)
                for name, variable in zip(names, fields)
            ]
            return node, Scope(scope_fields)
        if isinstance(relation, ast.Join):
            return self._plan_join(relation)
        raise SemanticError(f"unsupported relation {type(relation).__name__}")

    def _plan_table(self, table: ast.TableReference) -> tuple[PlanNode, Scope]:
        (catalog_name, _, table_name), connector, handle = self.resolve_table(table.parts)
        table_metadata = connector.get_table_metadata(handle)
        alias = table.alias or table_name
        assignments: list[tuple[str, str]] = []
        variables: list[VariableReferenceExpression] = []
        fields: list[Field] = []
        for column in table_metadata.columns:
            variable = self._new_variable(column.name, column.type)
            assignments.append((variable.name, column.name))
            variables.append(variable)
            fields.append(Field(column.name, alias, variable))
        scan = TableScanNode(
            catalog=catalog_name,
            handle=handle,
            assignments=tuple(assignments),
            output_variables=tuple(variables),
        )
        return scan, Scope(fields)

    def _plan_join(self, join: ast.Join) -> tuple[PlanNode, Scope]:
        left_node, left_scope = self._plan_relation(join.left)
        right_node, right_scope = self._plan_relation(join.right)
        combined = Scope(left_scope.fields + right_scope.fields)

        criteria: list[
            tuple[VariableReferenceExpression, VariableReferenceExpression]
        ] = []
        residual: list[RowExpression] = []
        # Equi-join keys that are computed expressions (e.g. the nested
        # dereference ``t.base.city_id``) get materialized by a projection
        # under the join so the hash join can use them.
        extra_left: list[tuple[VariableReferenceExpression, RowExpression]] = []
        extra_right: list[tuple[VariableReferenceExpression, RowExpression]] = []
        if join.condition is not None:
            condition = self._lower(join.condition, combined, allow_aggregates=False)
            self._require_boolean(condition, "JOIN ON")
            left_names = {v.name for v in left_node.outputs}
            right_names = {v.name for v in right_node.outputs}
            from repro.core.expressions import conjuncts

            for conjunct in conjuncts(condition):
                pair = self._extract_equi_pair(
                    conjunct, left_names, right_names, extra_left, extra_right
                )
                if pair is not None:
                    criteria.append(pair)
                else:
                    residual.append(conjunct)
        elif join.join_type != "cross":
            raise SemanticError("non-cross join requires ON condition")

        if extra_left:
            left_node = ProjectNode(
                source=left_node,
                assignments=tuple((v, v) for v in left_node.outputs)
                + tuple(extra_left),
            )
        if extra_right:
            right_node = ProjectNode(
                source=right_node,
                assignments=tuple((v, v) for v in right_node.outputs)
                + tuple(extra_right),
            )

        node = JoinNode(
            join_type=join.join_type,
            left=left_node,
            right=right_node,
            criteria=tuple(criteria),
            filter=and_(*residual) if residual else None,
            distribution=self._session.properties.get(
                "join_distribution_type", "partitioned"
            ),
        )
        return node, combined

    def _extract_equi_pair(
        self,
        conjunct: RowExpression,
        left_names: set[str],
        right_names: set[str],
        extra_left: list,
        extra_right: list,
    ):
        """Match ``expr_over_one_side = expr_over_other_side`` conjuncts.

        Non-variable key expressions are assigned fresh variables recorded
        in ``extra_left``/``extra_right`` for the under-join projections.
        """
        if not (
            isinstance(conjunct, CallExpression)
            and conjunct.function_handle.name == "equal"
            and len(conjunct.arguments) == 2
        ):
            return None
        a, b = conjunct.arguments
        a_names = {v.name for v in a.variables()}
        b_names = {v.name for v in b.variables()}
        if not a_names or not b_names:
            return None
        if a_names <= left_names and b_names <= right_names:
            left_expr, right_expr = a, b
        elif b_names <= left_names and a_names <= right_names:
            left_expr, right_expr = b, a
        else:
            return None

        def as_variable(expression: RowExpression, extras: list):
            if isinstance(expression, VariableReferenceExpression):
                return expression
            variable = self._new_variable("joinkey", expression.type)
            extras.append((variable, expression))
            return variable

        self._require_orderable(left_expr.type, "JOIN ON")
        return (
            as_variable(left_expr, extra_left),
            as_variable(right_expr, extra_right),
        )

    def qualify(self, parts: tuple[str, ...]) -> tuple[str, str, str]:
        """Resolve a 1-3 part table name against the session defaults.

        Public because metadata statements (DESCRIBE, ANALYZE) resolve
        table names with the same catalog/schema defaulting rules as SELECT.
        """
        if len(parts) == 3:
            return parts[0], parts[1], parts[2]
        if len(parts) == 2:
            if self._session.catalog is None:
                raise SemanticError(f"no default catalog set for table {'.'.join(parts)}")
            return self._session.catalog, parts[0], parts[1]
        if len(parts) == 1:
            if self._session.catalog is None or self._session.schema is None:
                raise SemanticError(f"no default schema set for table {parts[0]}")
            return self._session.catalog, self._session.schema, parts[0]
        raise SemanticError(f"invalid table name {'.'.join(parts)!r}")

    def resolve_table(self, parts: tuple[str, ...]):
        """``parts`` → (qualified name, connector, table handle):
        the lookup a FROM clause, DESCRIBE and ANALYZE share."""
        qualified = self.qualify(parts)
        catalog_name, schema_name, table_name = qualified
        connector = self._catalog.connector(catalog_name)
        handle = connector.get_table_handle(schema_name, table_name)
        if handle is None:
            raise SemanticError(f"table {'.'.join(qualified)} does not exist")
        return qualified, connector, handle

    # -- aggregation ----------------------------------------------------------------

    def _expand_group_by(self, query: ast.Query) -> list[ast.Expression]:
        """Resolve GROUP BY items, mapping ordinals to select expressions."""
        keys: list[ast.Expression] = []
        for item in query.group_by:
            if isinstance(item, ast.Literal) and isinstance(item.value, int):
                index = item.value
                if not 1 <= index <= len(query.select_items):
                    raise SemanticError(f"GROUP BY position {index} out of range")
                target = query.select_items[index - 1].expression
                if isinstance(target, ast.Star):
                    raise SemanticError("cannot GROUP BY *")
                keys.append(target)
            else:
                keys.append(item)
        return keys

    def _plan_aggregation(
        self,
        node: PlanNode,
        scope: Scope,
        group_key_asts: list[ast.Expression],
        query: ast.Query,
        aggregates: "_AggregateCollector",
    ) -> tuple[PlanNode, Scope, dict]:
        # Pre-projection computes group keys and aggregate arguments.
        pre_assignments: list[tuple[VariableReferenceExpression, RowExpression]] = []
        key_map: dict[ast.Expression, VariableReferenceExpression] = {}
        group_keys: list[VariableReferenceExpression] = []
        for key_ast in group_key_asts:
            lowered = self._lower(key_ast, scope, allow_aggregates=False)
            self._require_orderable(lowered.type, "GROUP BY")
            variable = self._new_variable("groupkey", lowered.type)
            pre_assignments.append((variable, lowered))
            key_map[key_ast] = variable
            group_keys.append(variable)

        # Collect aggregates from SELECT, HAVING and ORDER BY.
        for item in query.select_items:
            if not isinstance(item.expression, ast.Star):
                aggregates.collect(item.expression)
        if query.having is not None:
            aggregates.collect(query.having)
        for order_item in query.order_by:
            if not isinstance(order_item.expression, ast.Literal):
                try:
                    aggregates.collect(order_item.expression)
                except SemanticError:
                    pass  # may be an alias reference, resolved later

        aggregations: list[Aggregation] = []
        for spec in aggregates.specs():
            argument_variables: list[VariableReferenceExpression] = []
            for argument in spec.lowered_arguments:
                if spec.distinct:
                    self._require_orderable(argument.type, "DISTINCT aggregate")
                variable = self._new_variable("aggarg", argument.type)
                pre_assignments.append((variable, argument))
                argument_variables.append(variable)
            aggregations.append(
                Aggregation(
                    output=spec.output,
                    function_handle=spec.handle,
                    arguments=tuple(argument_variables),
                    distinct=spec.distinct,
                )
            )

        pre_project = ProjectNode(source=node, assignments=tuple(pre_assignments))
        aggregation = AggregationNode(
            source=pre_project,
            group_keys=tuple(group_keys),
            aggregations=tuple(aggregations),
            step=AggregationStep.SINGLE,
        )

        result: PlanNode = aggregation
        if query.having is not None:
            having = aggregates.lower_post_aggregation(query.having, key_map)
            self._require_boolean(having, "HAVING")
            result = FilterNode(source=result, predicate=having)

        post_fields = [Field(None, None, v) for v in aggregation.outputs]
        return result, Scope(post_fields), key_map

    def _resolve_order_expression(
        self,
        expression: ast.Expression,
        query: ast.Query,
        output_fields: list[Field],
        lower_output,
    ):
        """Resolve an ORDER BY item to a select index or lowered expression."""
        if isinstance(expression, ast.Literal) and isinstance(expression.value, int):
            index = expression.value
            if not 1 <= index <= len(query.select_items):
                raise SemanticError(f"ORDER BY position {index} out of range")
            return index - 1
        if isinstance(expression, ast.Identifier) and len(expression.parts) == 1:
            for index, item in enumerate(query.select_items):
                if item.alias == expression.parts[0]:
                    return index
        for index, item in enumerate(query.select_items):
            if item.expression == expression:
                return index
        return lower_output(expression)

    # -- expression lowering -------------------------------------------------------------

    def _lower(
        self, expression: ast.Expression, scope: Scope, allow_aggregates: bool
    ) -> RowExpression:
        lowerer = _ExpressionLowerer(self, scope, allow_aggregates)
        return lowerer.lower(expression)

    def _new_variable(self, hint: str, presto_type: PrestoType) -> VariableReferenceExpression:
        safe = hint.replace(".", "_")
        return VariableReferenceExpression(f"{safe}${next(self._counter)}", presto_type)

    def _require_orderable(self, presto_type: PrestoType, clause: str) -> None:
        """Keys factorize by ordering their values: ROW, MAP and GEOMETRY
        values (and arrays of them) have no order, as in Presto."""
        if not presto_type.is_orderable():
            raise SemanticError(
                f"{clause} key of type {presto_type.display()} is not orderable"
            )

    def _require_boolean(self, expression: RowExpression, context: str) -> None:
        if expression.type not in (BOOLEAN, UNKNOWN):
            raise SemanticError(
                f"{context} predicate must be boolean, got {expression.type.display()}"
            )


class _ExpressionLowerer:
    """Lowers one AST expression tree against a scope."""

    def __init__(self, analyzer: Analyzer, scope: Scope, allow_aggregates: bool) -> None:
        self._analyzer = analyzer
        self._scope = scope
        self._allow_aggregates = allow_aggregates
        self._registry = analyzer._registry

    def lower(self, expression: ast.Expression) -> RowExpression:
        if isinstance(expression, ast.Literal):
            return ConstantExpression(expression.value, _literal_type(expression.value))
        if isinstance(expression, ast.Identifier):
            return self._scope.resolve(expression.parts)
        if isinstance(expression, ast.BinaryOp):
            return self._lower_binary(expression)
        if isinstance(expression, ast.UnaryOp):
            return self._lower_unary(expression)
        if isinstance(expression, ast.FunctionCall):
            return self._lower_call(expression)
        if isinstance(expression, ast.InPredicate):
            return self._lower_in(expression)
        if isinstance(expression, ast.BetweenPredicate):
            return self._lower_between(expression)
        if isinstance(expression, ast.LikePredicate):
            return self._lower_like(expression)
        if isinstance(expression, ast.IsNullPredicate):
            value = self.lower(expression.value)
            result = SpecialFormExpression(SpecialForm.IS_NULL, BOOLEAN, (value,))
            return not_(result) if expression.negated else result
        if isinstance(expression, ast.Cast):
            return self._lower_cast(expression)
        if isinstance(expression, ast.CaseExpression):
            return self._lower_case(expression)
        if isinstance(expression, ast.SubscriptExpression):
            return self._call("element_at", [self.lower(expression.base), self.lower(expression.index)])
        if isinstance(expression, ast.LambdaExpression):
            raise SemanticError(
                "lambda expressions are only valid as arguments of "
                "transform(), filter(), or any_match()"
            )
        raise SemanticError(f"unsupported expression {type(expression).__name__}")

    def _call(self, name: str, arguments: list[RowExpression]) -> CallExpression:
        handle, _ = self._registry.resolve_scalar(name, [a.type for a in arguments])
        return CallExpression(
            name, handle, handle.resolved_return_type(), tuple(arguments)
        )

    def _lower_binary(self, expression: ast.BinaryOp) -> RowExpression:
        op = expression.operator
        if op == "and":
            return and_(self.lower(expression.left), self.lower(expression.right))
        if op == "or":
            from repro.core.expressions import or_

            return or_(self.lower(expression.left), self.lower(expression.right))
        left = self.lower(expression.left)
        right = self.lower(expression.right)
        if op == "||":
            return self._call("concat", [left, right])
        names = {
            "=": "equal",
            "<>": "not_equal",
            "<": "less_than",
            "<=": "less_than_or_equal",
            ">": "greater_than",
            ">=": "greater_than_or_equal",
            "+": "add",
            "-": "subtract",
            "*": "multiply",
            "/": "divide",
            "%": "modulus",
        }
        return self._call(names[op], [left, right])

    def _lower_unary(self, expression: ast.UnaryOp) -> RowExpression:
        operand = self.lower(expression.operand)
        if expression.operator == "not":
            return not_(operand)
        return self._call("negate", [operand])

    _HIGHER_ORDER = ("transform", "filter", "any_match")

    def _lower_call(self, expression: ast.FunctionCall) -> RowExpression:
        if self._registry.is_aggregate(expression.name):
            raise SemanticError(
                f"aggregate function {expression.name}() not allowed in this context"
            )
        if (
            expression.name.lower() in self._HIGHER_ORDER
            and len(expression.arguments) == 2
            and isinstance(expression.arguments[1], ast.LambdaExpression)
        ):
            return self._lower_higher_order(expression)
        arguments = [self.lower(a) for a in expression.arguments]
        return self._call(expression.name, arguments)

    def _lower_higher_order(self, expression: ast.FunctionCall) -> RowExpression:
        """Lower transform/filter/any_match with a lambda argument.

        The lambda's parameter is typed from the array's element type; its
        body may capture outer columns (evaluated per row).
        """
        from repro.core.expressions import LambdaDefinitionExpression
        from repro.core.types import ArrayType

        name = expression.name.lower()
        collection = self.lower(expression.arguments[0])
        if not isinstance(collection.type, ArrayType):
            raise SemanticError(
                f"{name}() requires an array, got {collection.type.display()}"
            )
        lambda_ast = expression.arguments[1]
        if len(lambda_ast.parameters) != 1:
            raise SemanticError(f"{name}() lambda takes exactly one parameter")
        parameter = lambda_ast.parameters[0]
        element_type = collection.type.element_type
        lambda_scope = _LambdaScope(
            self._scope, {parameter: VariableReferenceExpression(parameter, element_type)}
        )
        body = _ExpressionLowerer(
            self._analyzer, lambda_scope, self._allow_aggregates
        ).lower(lambda_ast.body)

        if name == "transform":
            return_type: PrestoType = ArrayType(body.type)
        elif name == "filter":
            if body.type is not BOOLEAN:
                raise SemanticError("filter() lambda must return boolean")
            return_type = collection.type
        else:  # any_match
            if body.type is not BOOLEAN:
                raise SemanticError("any_match() lambda must return boolean")
            return_type = BOOLEAN

        from repro.core.functions import FunctionHandle

        lambda_expression = LambdaDefinitionExpression(
            (parameter,), (element_type,), body, body.type
        )
        handle = FunctionHandle(
            name,
            (collection.type.display(), "function"),
            return_type.display(),
        )
        return CallExpression(name, handle, return_type, (collection, lambda_expression))

    def _lower_in(self, expression: ast.InPredicate) -> RowExpression:
        value = self.lower(expression.value)
        candidates = [self.lower(c) for c in expression.candidates]
        _common_type([e.type for e in [value] + candidates], "IN")
        result = SpecialFormExpression(
            SpecialForm.IN, BOOLEAN, tuple([value] + candidates)
        )
        return not_(result) if expression.negated else result

    def _lower_between(self, expression: ast.BetweenPredicate) -> RowExpression:
        value = self.lower(expression.value)
        low = self.lower(expression.low)
        high = self.lower(expression.high)
        result = and_(
            self._call("greater_than_or_equal", [value, low]),
            self._call("less_than_or_equal", [value, high]),
        )
        return not_(result) if expression.negated else result

    def _lower_like(self, expression: ast.LikePredicate) -> RowExpression:
        result = self._call(
            "like", [self.lower(expression.value), self.lower(expression.pattern)]
        )
        return not_(result) if expression.negated else result

    def _lower_cast(self, expression: ast.Cast) -> RowExpression:
        try:
            target = parse_type(expression.target_type)
        except ValueError as error:  # the type text is the user's
            raise SemanticError(f"CAST: {error}") from None
        inner = self.lower(expression.expression)
        if target.is_nested():
            raise SemanticError(f"CAST to {target.display()} is not supported")
        return self._call(f"cast_{target.name}", [inner])

    def _lower_case(self, expression: ast.CaseExpression) -> RowExpression:
        default: RowExpression
        if expression.default is not None:
            default = self.lower(expression.default)
        else:
            default = ConstantExpression(None, UNKNOWN)
        clauses = [
            (self.lower(condition), self.lower(value))
            for condition, value in reversed(expression.when_clauses)
        ]
        result_type = _common_type([default.type] + [v.type for _, v in clauses], "CASE")
        result = default
        for condition, value in clauses:
            result = SpecialFormExpression(
                SpecialForm.IF, result_type, (condition, value, result)
            )
        return result


class _LambdaScope(Scope):
    """Scope extending a parent with lambda parameter bindings."""

    def __init__(
        self, parent: Scope, parameters: dict[str, VariableReferenceExpression]
    ) -> None:
        super().__init__(parent.fields)
        self._parent = parent
        self._parameters = parameters

    def resolve(self, parts: tuple[str, ...]) -> RowExpression:
        if parts[0] in self._parameters:
            return _apply_dereferences(self._parameters[parts[0]], parts[1:])
        return self._parent.resolve(parts)


@dataclass
class _AggregateSpec:
    call_ast: ast.FunctionCall
    handle: object
    lowered_arguments: list[RowExpression]
    distinct: bool
    output: VariableReferenceExpression


class _AggregateCollector:
    """Finds aggregate calls, dedupes them, and rewrites post-agg expressions."""

    def __init__(self, analyzer: Analyzer, base_scope: Scope) -> None:
        self._analyzer = analyzer
        self._scope = base_scope
        self._registry = analyzer._registry
        self._specs: dict[ast.FunctionCall, _AggregateSpec] = {}

    def specs(self) -> list[_AggregateSpec]:
        return list(self._specs.values())

    def collect(self, expression: ast.Expression) -> None:
        for call in _find_aggregate_calls(self._registry, expression):
            if call in self._specs:
                continue
            lowered_args = [
                self._analyzer._lower(a, self._scope, allow_aggregates=False)
                for a in call.arguments
            ]
            handle, _ = self._registry.resolve_aggregate(
                call.name, [a.type for a in lowered_args]
            )
            output = self._analyzer._new_variable(
                call.name, handle.resolved_return_type()
            )
            self._specs[call] = _AggregateSpec(
                call, handle, lowered_args, call.distinct, output
            )

    def lower_post_aggregation(
        self,
        expression: ast.Expression,
        key_map: dict[ast.Expression, VariableReferenceExpression],
    ) -> RowExpression:
        """Lower an expression in the post-aggregation scope.

        Group-by expressions resolve to key variables; aggregate calls to
        their result variables; anything else must decompose into those.
        """
        if expression in key_map:
            return key_map[expression]
        if isinstance(expression, ast.FunctionCall) and self._registry.is_aggregate(
            expression.name
        ):
            self.collect(expression)
            return self._specs[expression].output

        if isinstance(expression, ast.Literal):
            return ConstantExpression(expression.value, _literal_type(expression.value))
        if isinstance(expression, ast.Identifier):
            raise SemanticError(
                f"column {expression.name!r} must appear in GROUP BY or inside an aggregate"
            )

        # Recurse structurally, rebuilding with lowered children.
        rebuilt_scope = _PostAggregationScope(self, key_map)
        lowerer = _ExpressionLowerer(self._analyzer, rebuilt_scope, False)
        lowerer.lower = _wrap_post_agg_lower(lowerer, self, key_map)  # type: ignore
        return lowerer.lower(expression)


class _PostAggregationScope(Scope):
    def __init__(self, collector: _AggregateCollector, key_map: dict) -> None:
        super().__init__([])
        self._collector = collector
        self._key_map = key_map

    def resolve(self, parts: tuple[str, ...]) -> RowExpression:
        identifier = ast.Identifier(parts)
        if identifier in self._key_map:
            return self._key_map[identifier]
        raise SemanticError(
            f"column {'.'.join(parts)!r} must appear in GROUP BY or inside an aggregate"
        )


def _wrap_post_agg_lower(lowerer, collector: _AggregateCollector, key_map: dict):
    original = _ExpressionLowerer.lower

    def lower(expression: ast.Expression) -> RowExpression:
        if expression in key_map:
            return key_map[expression]
        if isinstance(expression, ast.FunctionCall) and collector._registry.is_aggregate(
            expression.name
        ):
            collector.collect(expression)
            return collector._specs[expression].output
        return original(lowerer, expression)

    return lower


def _find_aggregate_calls(
    registry: FunctionRegistry, expression: ast.Expression
) -> list[ast.FunctionCall]:
    found: list[ast.FunctionCall] = []
    _collect_aggregate_calls(registry, expression, found)
    return found


def _collect_aggregate_calls(
    registry: FunctionRegistry, node: ast.Expression, found: list[ast.FunctionCall]
) -> None:
    if isinstance(node, ast.FunctionCall):
        if registry.is_aggregate(node.name):
            found.append(node)
            return  # nested aggregates are invalid; don't descend
        for argument in node.arguments:
            _collect_aggregate_calls(registry, argument, found)
        return
    for attr in (
        "left", "right", "operand", "value", "low", "high", "pattern",
        "expression", "base", "index", "default",
    ):
        child = getattr(node, attr, None)
        if isinstance(child, ast.Expression):
            _collect_aggregate_calls(registry, child, found)
    for attr in ("candidates",):
        children = getattr(node, attr, None)
        if children:
            for child in children:
                _collect_aggregate_calls(registry, child, found)
    when_clauses = getattr(node, "when_clauses", None)
    if when_clauses:
        for condition, value in when_clauses:
            _collect_aggregate_calls(registry, condition, found)
            _collect_aggregate_calls(registry, value, found)


def _contains_aggregate(
    registry: FunctionRegistry, expressions: Sequence[ast.Expression]
) -> bool:
    return any(_find_aggregate_calls(registry, e) for e in expressions if e is not None)


def _derive_name(expression: ast.Expression) -> Optional[str]:
    if isinstance(expression, ast.Identifier):
        return expression.parts[-1]
    if isinstance(expression, ast.FunctionCall):
        return expression.name
    return None


def _literal_type(value: object) -> PrestoType:
    if value is None:
        return UNKNOWN
    if isinstance(value, bool):
        return BOOLEAN
    if isinstance(value, int):
        return BIGINT
    if isinstance(value, float):
        return DOUBLE
    if isinstance(value, str):
        return VARCHAR
    raise SemanticError(f"unsupported literal {value!r}")


def _common_type(types: Sequence[PrestoType], what: str) -> PrestoType:
    """The one type ``types`` widen to (integer → bigint → double, NULL to
    anything): of a UNION column, an IN list or a CASE's branches."""
    common = types[0]
    for presto_type in types[1:]:
        merged = common_super_type(common, presto_type)
        if merged is None:
            raise SemanticError(
                f"{what} has incompatible types "
                f"{common.display()} and {presto_type.display()}"
            )
        common = merged
    return common
