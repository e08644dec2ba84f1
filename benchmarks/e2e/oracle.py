"""Independent result check: the same rows in stdlib ``sqlite3``.

The benchmark loads every table it gives the engine into one in-memory
SQLite database as well and computes the expected rows of each template
from the same SQL text (or the template's ``oracle_sql`` where the engine
dialect has no SQLite spelling: nested fields, three-part table names).
Nothing here imports the engine, so a bug shared by every execution lane
of ``src/`` still shows as a wrong result.
"""

from __future__ import annotations

import math
import sqlite3
from typing import Iterable, Optional, Sequence

REL_TOL = 1e-9
ABS_TOL = 1e-9


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _order_key(row: Sequence) -> tuple:
    """Sort key over the non-float columns (the grouping keys).

    Unordered results are GROUP BY outputs, whose key columns are unique,
    so floats (which may differ in the last digits) never decide order.
    """
    return tuple(
        (value is None, str(type(value).__name__), value)
        for value in row
        if not isinstance(value, float)
    )


def rows_match(got: Sequence[Sequence], expected: Sequence[Sequence], ordered: bool) -> bool:
    """Equal row for row; numbers within ``REL_TOL``; order only if ``ordered``."""
    if len(got) != len(expected):
        return False
    if not ordered:
        got = sorted(got, key=_order_key)
        expected = sorted(expected, key=_order_key)
    for got_row, expected_row in zip(got, expected):
        if len(got_row) != len(expected_row):
            return False
        for a, b in zip(got_row, expected_row):
            if _is_number(a) and _is_number(b):
                if not math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL):
                    return False
            elif a != b:
                return False
    return True


class SqliteOracle:
    """Expected rows per template, computed outside the timed interval."""

    def __init__(self) -> None:
        self.db = sqlite3.connect(":memory:")
        # SQLite's LIKE ignores ASCII case by default; the engine's does not.
        self.db.execute("PRAGMA case_sensitive_like = ON")
        self.expected: dict[str, list[tuple]] = {}
        self._event_offsets: Optional[list[int]] = None

    def close(self) -> None:
        self.db.close()

    def load(self, table: str, columns: Sequence[str], rows: Iterable[Sequence]) -> None:
        self.db.execute(f"CREATE TABLE {table} ({', '.join(columns)})")
        self.insert(table, len(columns), rows)

    def insert(self, table: str, width: int, rows: Iterable[Sequence]) -> None:
        marks = ", ".join("?" * width)
        self.db.executemany(f"INSERT INTO {table} VALUES ({marks})", rows)

    def query(self, template) -> list[tuple]:
        return self.db.execute(template.oracle_sql or template.sql).fetchall()

    def prepare(self, templates) -> None:
        """Compute and keep the expected rows of templates over static tables."""
        for template in templates:
            if not template.live:
                self.expected[template.name] = self.query(template)

    def check(self, template, got: Sequence[Sequence]) -> bool:
        expected = (
            self.query(template) if template.live else self.expected[template.name]
        )
        return rows_match(got, expected, template.ordered)

    # -- the streaming log -------------------------------------------------

    def reset_events(self) -> None:
        """Forget the log: the system under test starts again from an empty one."""
        self.db.execute("DROP TABLE IF EXISTS events")
        self._event_offsets = None

    def advance_events(self, broker, topic: str, watermark) -> None:
        """Make table ``events`` hold exactly the log prefix below ``watermark``.

        Hybrid reads are checked against the durable log cut at the
        watermark that was committed when the read ran.  Watermarks only
        move forward, so each call appends the newly covered records.
        """
        if self._event_offsets is None:
            fields = [name for name, _ in broker.fields(topic)]
            self.db.execute(f"CREATE TABLE events ({', '.join(fields)})")
            self._event_offsets = [0] * watermark.partitions
        width = len(broker.fields(topic))
        for partition, loaded in enumerate(self._event_offsets):
            upto = watermark.offset(partition)
            if upto > loaded:
                log = broker.log_records(topic, partition)
                self.insert(
                    "events", width, (tuple(r.values) for r in log[loaded:upto])
                )
                self._event_offsets[partition] = upto
