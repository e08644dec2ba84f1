"""Recursive-descent SQL parser.

Grammar (simplified)::

    statement  := (query | explain | show | describe | analyze) [';']
    explain    := EXPLAIN [ANALYZE | '(' TYPE DISTRIBUTED ')'] query
    show       := SHOW CATALOGS | SHOW SCHEMAS [FROM name]
                | SHOW TABLES [FROM name ['.' name]]
    describe   := (DESCRIBE | DESC) tableName
    analyze    := ANALYZE [TABLE] tableName
    query      := SELECT [DISTINCT] selectItem (',' selectItem)*
                  [FROM relation] [WHERE expr]
                  [GROUP BY expr (',' expr)*] [HAVING expr]
                  [ORDER BY orderItem (',' orderItem)*] [LIMIT int]
    relation   := tableName [alias] | '(' query ')' [alias] | relation joinClause
    tableName  := identifier ('.' identifier)*
    expr       := or-precedence climbing down to primary

Operator precedence (loosest to tightest): OR, AND, NOT, comparison /
IN / BETWEEN / LIKE / IS NULL, additive (+ - ||), multiplicative (* / %),
unary minus, subscript/dereference, primary.

EXPLAIN, SHOW, DESCRIBE, ANALYZE and the words after them are not reserved:
they are matched by value where a statement may start, so ``SELECT type
FROM tables`` stays legal.  The names after SHOW ... FROM keep the case they
were typed in; every other unquoted name is lowercased, as in a query.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Union

from repro.common.errors import SyntaxError_
from repro.sql import ast
from repro.sql.lexer import Token, TokenType, tokenize


def parse_sql(sql: str) -> ast.Query:
    """Parse one SELECT statement into an AST."""
    parser = _Parser(tokenize(sql))
    query = parser.parse_query()
    parser.expect_end()
    return query


def parse_statement(sql: str) -> Union[ast.Query, ast.Statement]:
    """Parse one statement: a query or a metadata statement."""
    parser = _Parser(tokenize(sql))
    statement = parser.parse_statement()
    parser.expect_end()
    return statement


_NAME_TOKENS = (TokenType.IDENTIFIER, TokenType.QUOTED_IDENTIFIER)


class _Parser:
    def __init__(self, tokens: list[Token]) -> None:
        self._tokens = tokens
        self._pos = 0

    # -- token helpers -------------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        return self._tokens[min(self._pos + offset, len(self._tokens) - 1)]

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        if token.type is not TokenType.END:
            self._pos += 1
        return token

    def _check_keyword(self, *keywords: str) -> bool:
        token = self._peek()
        return token.type is TokenType.KEYWORD and token.value in keywords

    def _accept_keyword(self, *keywords: str) -> Optional[str]:
        if self._check_keyword(*keywords):
            return self._advance().value
        return None

    def _expected(self, what: str) -> SyntaxError_:
        """The error for the current token standing where ``what`` should."""
        token = self._peek()
        return SyntaxError_(
            f"expected {what}, found {token.text or 'end of input'!r}", token.line, token.column
        )

    def _expect_keyword(self, keyword: str) -> None:
        if not self._check_keyword(keyword):
            raise self._expected(keyword.upper())
        self._advance()

    def _check_operator(self, *ops: str) -> bool:
        token = self._peek()
        return token.type is TokenType.OPERATOR and token.text in ops

    def _accept_operator(self, *ops: str) -> Optional[str]:
        if self._check_operator(*ops):
            return self._advance().text
        return None

    def _expect_operator(self, op: str) -> None:
        if not self._check_operator(op):
            raise self._expected(repr(op))
        self._advance()

    def expect_end(self) -> None:
        self._accept_operator(";")
        token = self._peek()
        if token.type is not TokenType.END:
            raise SyntaxError_(f"unexpected trailing input {token.text!r}", token.line, token.column)

    def _identifier_token(self) -> Token:
        if self._peek().type in _NAME_TOKENS:
            return self._advance()
        raise self._expected("identifier")

    def _identifier(self) -> str:
        return self._identifier_token().value

    def _accept_word(self, *words: str) -> Optional[str]:
        """An unreserved statement word (EXPLAIN, SHOW, TABLES, ...)."""
        token = self._peek()
        if token.type in (TokenType.IDENTIFIER, TokenType.KEYWORD) and token.value in words:
            return self._advance().value
        return None

    def _expect_word(self, *words: str) -> str:
        word = self._accept_word(*words)
        if word is None:
            raise self._expected(" or ".join(w.upper() for w in words))
        return word

    # -- statements ------------------------------------------------------------

    def parse_statement(self) -> Union[ast.Query, ast.Statement]:
        if self._accept_word("explain"):
            mode = "logical"
            if self._accept_word("analyze"):
                mode = "analyze"
            elif self._accept_operator("("):
                self._expect_word("type")
                self._expect_word("distributed")
                self._expect_operator(")")
                mode = "distributed"
            return ast.Explain(self.parse_query(), mode)
        if self._accept_word("show"):
            listed = self._expect_word("catalogs", "schemas", "tables")
            if listed == "catalogs":
                return ast.ShowCatalogs()
            if listed == "schemas":
                return ast.ShowSchemas(*self._from_names(1))
            names = self._from_names(2)
            return ast.ShowTables(*names) if len(names) == 2 else ast.ShowTables(None, *names)
        if self._accept_word("describe", "desc"):
            return ast.Describe(self._table_name())
        if self._accept_word("analyze"):
            self._accept_word("table")
            return ast.Analyze(self._table_name())
        return self.parse_query()

    def _from_names(self, limit: int) -> list[str]:
        """``[FROM name ['.' name]]`` after SHOW: at most ``limit`` names, as typed."""
        names: list[str] = []
        if self._accept_keyword("from"):
            names.append(self._identifier_token().text)
            while len(names) < limit and self._accept_operator("."):
                names.append(self._identifier_token().text)
        return names

    # -- query ----------------------------------------------------------------

    def parse_query(self) -> ast.Query:
        self._expect_keyword("select")
        distinct = self._accept_keyword("distinct") is not None
        select_items = [self._select_item()]
        while self._accept_operator(","):
            select_items.append(self._select_item())

        from_relation = None
        if self._accept_keyword("from"):
            from_relation = self._relation()

        where = None
        if self._accept_keyword("where"):
            where = self.parse_expression()

        group_by: list[ast.Expression] = []
        if self._accept_keyword("group"):
            self._expect_keyword("by")
            group_by.append(self.parse_expression())
            while self._accept_operator(","):
                group_by.append(self.parse_expression())

        having = None
        if self._accept_keyword("having"):
            having = self.parse_expression()

        order_by: list[ast.OrderItem] = []
        if self._accept_keyword("order"):
            self._expect_keyword("by")
            order_by.append(self._order_item())
            while self._accept_operator(","):
                order_by.append(self._order_item())

        limit = None
        if self._accept_keyword("limit"):
            token = self._peek()
            if token.type is not TokenType.INTEGER:
                raise SyntaxError_("LIMIT requires an integer", token.line, token.column)
            limit = int(self._advance().text)

        query = ast.Query(
            select_items=tuple(select_items),
            from_relation=from_relation,
            where=where,
            group_by=tuple(group_by),
            having=having,
            order_by=tuple(order_by),
            limit=limit,
            distinct=distinct,
        )

        # UNION [ALL|DISTINCT] chains.  ORDER BY / LIMIT bind per branch in
        # this dialect.
        unions: list[tuple[ast.Query, bool]] = []
        while self._accept_keyword("union"):
            if self._accept_keyword("all"):
                branch_distinct = False
            else:
                self._accept_keyword("distinct")
                branch_distinct = True
            branch = self.parse_query()
            # Flatten right-recursive parses into one branch list.
            unions.append((replace(branch, unions=()), branch_distinct))
            unions.extend(branch.unions)
        if unions:
            query = replace(query, unions=tuple(unions))
        return query

    def _select_item(self) -> ast.SelectItem:
        if self._check_operator("*"):
            self._advance()
            return ast.SelectItem(ast.Star())
        expression = self.parse_expression()
        # t.* parses as Identifier('t') followed by '.' '*'; handle that here.
        alias = None
        if self._accept_keyword("as"):
            alias = self._identifier()
        elif self._peek().type in _NAME_TOKENS:
            alias = self._identifier()
        return ast.SelectItem(expression, alias)

    def _order_item(self) -> ast.OrderItem:
        expression = self.parse_expression()
        ascending = True
        if self._accept_keyword("desc"):
            ascending = False
        else:
            self._accept_keyword("asc")
        return ast.OrderItem(expression, ascending)

    # -- relations ----------------------------------------------------------------

    def _relation(self) -> ast.Relation:
        relation = self._relation_primary()
        while True:
            if self._accept_keyword("cross"):
                self._expect_keyword("join")
                right = self._relation_primary()
                relation = ast.Join("cross", relation, right)
                continue
            join_type = None
            if self._check_keyword("join"):
                join_type = "inner"
                self._advance()
            elif self._check_keyword("inner"):
                self._advance()
                self._expect_keyword("join")
                join_type = "inner"
            elif self._check_keyword("left", "right", "full"):
                join_type = self._advance().value
                self._accept_keyword("outer")
                self._expect_keyword("join")
            if join_type is None:
                break
            right = self._relation_primary()
            self._expect_keyword("on")
            condition = self.parse_expression()
            relation = ast.Join(join_type, relation, right, condition)
        return relation

    def _relation_primary(self) -> ast.Relation:
        if self._accept_operator("("):
            query = self.parse_query()
            self._expect_operator(")")
            alias = self._relation_alias()
            return ast.SubqueryRelation(query, alias)
        return ast.TableReference(self._table_name(), self._relation_alias())

    def _table_name(self) -> tuple[str, ...]:
        parts = [self._identifier()]
        while self._check_operator(".") and self._peek(1).type in _NAME_TOKENS:
            self._advance()
            parts.append(self._identifier())
        return tuple(parts)

    def _relation_alias(self) -> Optional[str]:
        if self._accept_keyword("as"):
            return self._identifier()
        if self._peek().type in _NAME_TOKENS:
            return self._identifier()
        return None

    # -- expressions (precedence climbing) -------------------------------------------

    def parse_expression(self) -> ast.Expression:
        return self._or_expression()

    def _or_expression(self) -> ast.Expression:
        left = self._and_expression()
        while self._accept_keyword("or"):
            right = self._and_expression()
            left = ast.BinaryOp("or", left, right)
        return left

    def _and_expression(self) -> ast.Expression:
        left = self._not_expression()
        while self._accept_keyword("and"):
            right = self._not_expression()
            left = ast.BinaryOp("and", left, right)
        return left

    def _not_expression(self) -> ast.Expression:
        if self._accept_keyword("not"):
            return ast.UnaryOp("not", self._not_expression())
        return self._comparison()

    def _comparison(self) -> ast.Expression:
        left = self._additive()
        op = self._accept_operator("=", "<>", "!=", "<", "<=", ">", ">=")
        if op is not None:
            right = self._additive()
            return ast.BinaryOp("<>" if op == "!=" else op, left, right)

        negated = False
        if self._check_keyword("not") and self._peek(1).value in ("in", "between", "like"):
            self._advance()
            negated = True

        if self._accept_keyword("in"):
            self._expect_operator("(")
            candidates = [self.parse_expression()]
            while self._accept_operator(","):
                candidates.append(self.parse_expression())
            self._expect_operator(")")
            return ast.InPredicate(left, tuple(candidates), negated)

        if self._accept_keyword("between"):
            low = self._additive()
            self._expect_keyword("and")
            high = self._additive()
            return ast.BetweenPredicate(left, low, high, negated)

        if self._accept_keyword("like"):
            pattern = self._additive()
            return ast.LikePredicate(left, pattern, negated)

        if self._accept_keyword("is"):
            is_negated = self._accept_keyword("not") is not None
            self._expect_keyword("null")
            return ast.IsNullPredicate(left, is_negated)

        return left

    def _additive(self) -> ast.Expression:
        left = self._multiplicative()
        while True:
            op = self._accept_operator("+", "-", "||")
            if op is None:
                return left
            right = self._multiplicative()
            left = ast.BinaryOp(op, left, right)

    def _multiplicative(self) -> ast.Expression:
        left = self._unary()
        while True:
            op = self._accept_operator("*", "/", "%")
            if op is None:
                return left
            right = self._unary()
            left = ast.BinaryOp(op, left, right)

    def _unary(self) -> ast.Expression:
        if self._accept_operator("-"):
            return ast.UnaryOp("-", self._unary())
        if self._accept_operator("+"):
            return self._unary()
        return self._postfix()

    def _postfix(self) -> ast.Expression:
        expression = self._primary()
        while True:
            if self._accept_operator("["):
                index = self.parse_expression()
                self._expect_operator("]")
                expression = ast.SubscriptExpression(expression, index)
                continue
            # Dotted dereference after a non-identifier primary, e.g. cast(x).f
            if (
                self._check_operator(".")
                and not isinstance(expression, ast.Identifier)
                and self._peek(1).type in _NAME_TOKENS
            ):
                self._advance()
                field_name = self._identifier()
                if isinstance(expression, ast.Identifier):
                    expression = ast.Identifier(expression.parts + (field_name,))
                else:
                    expression = ast.SubscriptExpression(expression, ast.Literal(field_name))
                continue
            break
        return expression

    def _primary(self) -> ast.Expression:
        token = self._peek()

        if token.type is TokenType.INTEGER:
            self._advance()
            return ast.Literal(int(token.text))
        if token.type is TokenType.DECIMAL:
            self._advance()
            return ast.Literal(float(token.text))
        if token.type is TokenType.STRING:
            self._advance()
            return ast.Literal(token.text)
        if self._accept_keyword("true"):
            return ast.Literal(True)
        if self._accept_keyword("false"):
            return ast.Literal(False)
        if self._accept_keyword("null"):
            return ast.Literal(None)

        if self._accept_keyword("cast"):
            self._expect_operator("(")
            inner = self.parse_expression()
            self._expect_keyword("as")
            type_text = self._type_text()
            self._expect_operator(")")
            return ast.Cast(inner, type_text)

        if self._accept_keyword("case"):
            return self._case_expression()

        if self._accept_operator("("):
            # Could be a parenthesized expression or a lambda parameter list.
            if self._is_lambda_parameters():
                return self._lambda_expression()
            inner = self.parse_expression()
            self._expect_operator(")")
            return inner

        if token.type in _NAME_TOKENS:
            # Single-parameter lambda: x -> expr
            if self._peek(1).type is TokenType.OPERATOR and self._peek(1).text == "->":
                name = self._identifier()
                self._advance()  # ->
                body = self.parse_expression()
                return ast.LambdaExpression((name,), body)
            return self._identifier_or_call()

        raise SyntaxError_(
            f"unexpected token {token.text or 'end of input'!r}", token.line, token.column
        )

    def _identifier_or_call(self) -> ast.Expression:
        name = self._identifier()
        if self._check_operator("("):
            self._advance()
            distinct = self._accept_keyword("distinct") is not None
            arguments: list[ast.Expression] = []
            if self._check_operator("*"):
                self._advance()  # count(*): zero-argument aggregate
            elif not self._check_operator(")"):
                arguments.append(self.parse_expression())
                while self._accept_operator(","):
                    arguments.append(self.parse_expression())
            self._expect_operator(")")
            return ast.FunctionCall(name, tuple(arguments), distinct)

        parts = [name]
        while self._check_operator(".") and self._peek(1).type in _NAME_TOKENS:
            self._advance()
            parts.append(self._identifier())
        if self._check_operator(".") and self._peek(1).text == "*":
            self._advance()
            self._advance()
            return ast.Star(qualifier=".".join(parts))
        return ast.Identifier(tuple(parts))

    def _case_expression(self) -> ast.Expression:
        when_clauses: list[tuple[ast.Expression, ast.Expression]] = []
        while self._accept_keyword("when"):
            condition = self.parse_expression()
            self._expect_keyword("then")
            value = self.parse_expression()
            when_clauses.append((condition, value))
        if not when_clauses:
            token = self._peek()
            raise SyntaxError_("CASE requires at least one WHEN", token.line, token.column)
        default = None
        if self._accept_keyword("else"):
            default = self.parse_expression()
        self._expect_keyword("end")
        return ast.CaseExpression(tuple(when_clauses), default)

    def _is_lambda_parameters(self) -> bool:
        """Look ahead past '(' for ``ident (, ident)* ) ->``."""
        offset = 0
        while True:
            if self._peek(offset).type not in _NAME_TOKENS:
                return False
            offset += 1
            token = self._peek(offset)
            if token.type is TokenType.OPERATOR and token.text == ",":
                offset += 1
                continue
            if token.type is TokenType.OPERATOR and token.text == ")":
                offset += 1
                after = self._peek(offset)
                return after.type is TokenType.OPERATOR and after.text == "->"
            return False

    def _lambda_expression(self) -> ast.Expression:
        parameters = [self._identifier()]
        while self._accept_operator(","):
            parameters.append(self._identifier())
        self._expect_operator(")")
        self._expect_operator("->")
        body = self.parse_expression()
        return ast.LambdaExpression(tuple(parameters), body)

    def _type_text(self) -> str:
        """Consume tokens forming a type expression and return their text."""
        parts: list[str] = [self._identifier()]
        if self._check_operator("("):
            depth = 0
            while True:
                token = self._peek()
                if token.type is TokenType.END:
                    raise SyntaxError_("unterminated type expression", token.line, token.column)
                if self._check_operator("("):
                    depth += 1
                elif self._check_operator(")"):
                    depth -= 1
                    if depth == 0:
                        parts.append(self._advance().text)
                        break
                parts.append(self._advance().text)
                if self._check_operator(","):
                    continue
        return _join_type_tokens(parts)


def _join_type_tokens(parts: list[str]) -> str:
    """Join type tokens with minimal spacing: ``row(a bigint, b varchar)``."""
    out: list[str] = []
    for i, part in enumerate(parts):
        if part in ("(", ")", ","):
            out.append(part)
        else:
            if out and out[-1] not in ("(",) and not out[-1].endswith(","):
                if out[-1] in (")",):
                    out.append(" ")
                elif out[-1] not in ("(",):
                    out.append(" ")
            out.append(part)
    text = "".join(out)
    # Normalize ", " after commas for readability.
    return text.replace(" ,", ",").replace(",", ", ").replace("  ", " ").replace("( ", "(").strip()
