"""SQL lexer.

Produces a flat token stream with line/column positions so parse errors
point at the offending text, mirroring Presto's error reporting.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.common.errors import SyntaxError_


class TokenType(enum.Enum):
    KEYWORD = "keyword"
    IDENTIFIER = "identifier"
    QUOTED_IDENTIFIER = "quoted_identifier"
    STRING = "string"
    INTEGER = "integer"
    DECIMAL = "decimal"
    OPERATOR = "operator"
    END = "end"


KEYWORDS = {
    "select", "from", "where", "group", "by", "having", "order", "limit",
    "join", "inner", "left", "right", "full", "outer", "cross", "on", "as",
    "and", "or", "not", "in", "is", "null", "true", "false", "between",
    "like", "cast", "case", "when", "then", "else", "end", "distinct",
    "asc", "desc", "union", "all", "with", "exists",
}

_OPERATORS = [
    "<>", "<=", ">=", "!=", "->", "||",
    "=", "<", ">", "+", "-", "*", "/", "%", ".", ",", "(", ")", "[", "]", ";",
]


@dataclass(frozen=True)
class Token:
    type: TokenType
    text: str
    line: int
    column: int

    @property
    def value(self) -> str:
        """Normalized token text: keywords and identifiers are lowercased."""
        if self.type in (TokenType.KEYWORD, TokenType.IDENTIFIER):
            return self.text.lower()
        return self.text

    def __repr__(self) -> str:
        return f"Token({self.type.value}, {self.text!r})"


def tokenize(sql: str) -> list[Token]:
    """Tokenize ``sql``; raises :class:`SyntaxError_` on bad input."""
    tokens: list[Token] = []
    pos = 0
    line = 1
    line_start = 0
    n = len(sql)

    def column() -> int:
        return pos - line_start + 1

    while pos < n:
        ch = sql[pos]

        if ch == "\n":
            line += 1
            pos += 1
            line_start = pos
            continue
        if ch.isspace():
            pos += 1
            continue

        # -- comments -----------------------------------------------------
        if sql.startswith("--", pos):
            end = sql.find("\n", pos)
            pos = n if end < 0 else end
            continue
        if sql.startswith("/*", pos):
            end = sql.find("*/", pos + 2)
            if end < 0:
                raise SyntaxError_("unterminated block comment", line, column())
            pos = end + 2
            continue

        # -- string literal -------------------------------------------------
        if ch == "'":
            start_line, start_col = line, column()
            pos += 1
            chars: list[str] = []
            while True:
                if pos >= n:
                    raise SyntaxError_("unterminated string literal", start_line, start_col)
                if sql[pos] == "'":
                    if pos + 1 < n and sql[pos + 1] == "'":  # escaped quote
                        chars.append("'")
                        pos += 2
                        continue
                    pos += 1
                    break
                chars.append(sql[pos])
                pos += 1
            tokens.append(Token(TokenType.STRING, "".join(chars), start_line, start_col))
            continue

        # -- quoted identifier (ANSI double quotes or Spark backticks) --------
        if ch in ('"', "`"):
            start_line, start_col = line, column()
            end = sql.find(ch, pos + 1)
            if end < 0:
                raise SyntaxError_("unterminated quoted identifier", start_line, start_col)
            tokens.append(
                Token(TokenType.QUOTED_IDENTIFIER, sql[pos + 1 : end], start_line, start_col)
            )
            pos = end + 1
            continue

        # -- number -------------------------------------------------------------
        # isdecimal(), not isdigit(): int() and float() reject digits such
        # as a superscript two.
        if ch.isdecimal():
            start = pos
            start_col = column()
            while pos < n and sql[pos].isdecimal():
                pos += 1
            is_decimal = False
            if pos < n and sql[pos] == "." and pos + 1 < n and sql[pos + 1].isdecimal():
                is_decimal = True
                pos += 1
                while pos < n and sql[pos].isdecimal():
                    pos += 1
            if pos < n and sql[pos] in "eE":
                is_decimal = True
                pos += 1
                if pos < n and sql[pos] in "+-":
                    pos += 1
                if pos >= n or not sql[pos].isdecimal():
                    raise SyntaxError_(f"malformed number {sql[start:pos]!r}", line, start_col)
                while pos < n and sql[pos].isdecimal():
                    pos += 1
            kind = TokenType.DECIMAL if is_decimal else TokenType.INTEGER
            tokens.append(Token(kind, sql[start:pos], line, start_col))
            continue

        # -- identifier / keyword -------------------------------------------------
        if ch.isalpha() or ch == "_":
            start = pos
            start_col = column()
            while pos < n and (sql[pos].isalnum() or sql[pos] in "_$"):
                pos += 1
            text = sql[start:pos]
            kind = TokenType.KEYWORD if text.lower() in KEYWORDS else TokenType.IDENTIFIER
            tokens.append(Token(kind, text, line, start_col))
            continue

        # -- operators ------------------------------------------------------------
        for op in _OPERATORS:
            if sql.startswith(op, pos):
                tokens.append(Token(TokenType.OPERATOR, op, line, column()))
                pos += len(op)
                break
        else:
            raise SyntaxError_(f"unexpected character {ch!r}", line, column())

    tokens.append(Token(TokenType.END, "", line, column()))
    return tokens
