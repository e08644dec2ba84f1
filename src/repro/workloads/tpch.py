"""TPC-H LINEITEM generator and the writer benchmark datasets.

Figures 18-20 measure writer throughput on "a list of pages with millions
of rows" across twelve datasets: all LINEITEM columns, sequential and
random bigints, small/large/dictionary varchars, four map variants, and an
array-of-varchar column.  All generation is seeded and deterministic.
"""

from __future__ import annotations

import numpy as np

from repro.core.page import Page
from repro.core.types import (
    ArrayType,
    BIGINT,
    DOUBLE,
    MapType,
    PrestoType,
    VARCHAR,
)
from repro.formats.parquet.schema import ParquetSchema

LINEITEM_COLUMNS: list[tuple[str, PrestoType]] = [
    ("orderkey", BIGINT),
    ("partkey", BIGINT),
    ("suppkey", BIGINT),
    ("linenumber", BIGINT),
    ("quantity", DOUBLE),
    ("extendedprice", DOUBLE),
    ("discount", DOUBLE),
    ("tax", DOUBLE),
    ("returnflag", VARCHAR),
    ("linestatus", VARCHAR),
    ("shipdate", VARCHAR),
    ("commitdate", VARCHAR),
    ("receiptdate", VARCHAR),
    ("shipinstruct", VARCHAR),
    ("shipmode", VARCHAR),
    ("comment", VARCHAR),
]

_RETURN_FLAGS = ["R", "A", "N"]
_LINE_STATUS = ["O", "F"]
_SHIP_INSTRUCT = ["DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"]
_SHIP_MODES = ["TRUCK", "MAIL", "SHIP", "AIR", "RAIL", "REG AIR", "FOB"]
_COMMENT_WORDS = (
    "carefully final deposits boost quickly regular packages haggle furiously "
    "ironic accounts sleep blithely express requests nag slyly"
).split()


def _date(rng: np.random.Generator) -> str:
    year = int(rng.integers(1992, 1999))
    month = int(rng.integers(1, 13))
    day = int(rng.integers(1, 29))
    return f"{year:04d}-{month:02d}-{day:02d}"


def generate_lineitem(rows: int, seed: int = 7) -> list[tuple]:
    """Deterministic LINEITEM-shaped rows."""
    rng = np.random.default_rng(seed)
    result = []
    for i in range(rows):
        quantity = float(rng.integers(1, 51))
        price = round(float(rng.uniform(900, 105000)), 2)
        comment_len = int(rng.integers(2, 7))
        comment = " ".join(
            _COMMENT_WORDS[int(k)]
            for k in rng.integers(0, len(_COMMENT_WORDS), comment_len)
        )
        result.append(
            (
                i // 4 + 1,
                int(rng.integers(1, 200_001)),
                int(rng.integers(1, 10_001)),
                i % 7 + 1,
                quantity,
                price,
                round(float(rng.uniform(0.0, 0.1)), 2),
                round(float(rng.uniform(0.0, 0.08)), 2),
                _RETURN_FLAGS[int(rng.integers(0, 3))],
                _LINE_STATUS[int(rng.integers(0, 2))],
                _date(rng),
                _date(rng),
                _date(rng),
                _SHIP_INSTRUCT[int(rng.integers(0, 4))],
                _SHIP_MODES[int(rng.integers(0, 7))],
                comment,
            )
        )
    return result


def _random_string(rng: np.random.Generator, length: int) -> str:
    letters = "abcdefghijklmnopqrstuvwxyz"
    return "".join(letters[int(i)] for i in rng.integers(0, 26, length))


def _builders() -> list[tuple[str, list[tuple[str, PrestoType]], object]]:
    """(name, columns, builder(rng, rows) -> column value lists)."""

    def lineitem(rng, rows):
        return [list(column) for column in zip(*generate_lineitem(rows, int(rng.integers(1, 2**31))))]

    def bigint_sequential(rng, rows):
        return [list(range(rows))]

    def bigint_random(rng, rows):
        return [[int(v) for v in rng.integers(0, 2**62, rows)]]

    def small_varchar(rng, rows):
        return [[_random_string(rng, 8) for _ in range(rows)]]

    def large_varchar(rng, rows):
        return [[_random_string(rng, 200) for _ in range(rows)]]

    def varchar_dictionary(rng, rows):
        values = [_random_string(rng, 12) for _ in range(16)]
        return [[values[int(i)] for i in rng.integers(0, 16, rows)]]

    def map_varchar_double(rng, rows):
        return [[{_random_string(rng, 6): float(rng.uniform()) for _ in range(3)} for _ in range(rows)]]

    def large_map_varchar_double(rng, rows):
        return [[{_random_string(rng, 6): float(rng.uniform()) for _ in range(20)} for _ in range(rows)]]

    def map_int_double(rng, rows):
        return [[{int(k): float(rng.uniform()) for k in rng.integers(0, 1000, 3)} for _ in range(rows)]]

    def large_map_int_double(rng, rows):
        return [[{int(k): float(rng.uniform()) for k in rng.integers(0, 10_000, 20)} for _ in range(rows)]]

    def array_varchar(rng, rows):
        return [[[_random_string(rng, 10) for _ in range(int(rng.integers(0, 6)))] for _ in range(rows)]]

    v = "v"
    return [
        ("All Lineitem columns", LINEITEM_COLUMNS, lineitem),
        ("Bigint Sequential", [(v, BIGINT)], bigint_sequential),
        ("Bigint Random", [(v, BIGINT)], bigint_random),
        ("Small Varchar", [(v, VARCHAR)], small_varchar),
        ("Large Varchar", [(v, VARCHAR)], large_varchar),
        ("Varchar Dictionary", [(v, VARCHAR)], varchar_dictionary),
        ("Map Varchar To Double", [(v, MapType(VARCHAR, DOUBLE))], map_varchar_double),
        ("Large Map Varchar To Double", [(v, MapType(VARCHAR, DOUBLE))], large_map_varchar_double),
        ("Map Int To Double", [(v, MapType(BIGINT, DOUBLE))], map_int_double),
        ("Large Map Int To Double", [(v, MapType(BIGINT, DOUBLE))], large_map_int_double),
        ("Array Varchar", [(v, ArrayType(VARCHAR))], array_varchar),
    ]


WRITER_DATASET_NAMES = [name for name, _, _ in _builders()]


def writer_benchmark_dataset(name: str, rows: int, seed: int = 11):
    """Build one figure 18-20 dataset: (name, ParquetSchema, Page)."""
    for candidate, columns, builder in _builders():
        if candidate == name:
            rng = np.random.default_rng(seed)
            values = builder(rng, rows)
            page = Page.from_columns([t for _, t in columns], values)
            return name, ParquetSchema(columns), page
    raise KeyError(f"unknown writer benchmark dataset {name!r}")


def writer_benchmark_datasets(rows: int, seed: int = 11):
    """All figure 18-20 datasets at a uniform row count."""
    return [
        writer_benchmark_dataset(name, rows, seed) for name in WRITER_DATASET_NAMES
    ]
