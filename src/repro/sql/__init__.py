"""SQL frontend: lexer, AST, and parser.

The coordinator "parses incoming SQL, and tokenizes it into Abstract Syntax
Tree" (section III, figure 1).  This package implements the SQL dialect
subset the paper's workloads exercise: SELECT queries with joins, nested
field dereference (``base.city_id``), aggregation, HAVING, ORDER BY, LIMIT,
IN/BETWEEN/LIKE/IS NULL predicates, CASE, CAST, and lambdas — and the
metadata statements EXPLAIN, SHOW, DESCRIBE and ANALYZE
(``parse_statement``; the grammar is in ``docs/API.md``).
"""

from repro.sql.parser import parse_sql, parse_statement
from repro.sql.lexer import tokenize

__all__ = ["parse_sql", "parse_statement", "tokenize"]
