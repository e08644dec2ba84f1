"""Reader feature switches.

Each flag corresponds to one optimization of sections V.D-V.I so the
figure-17 benchmark can ablate them individually:

- ``nested_column_pruning`` (V.D) — read only required leaf columns.
- ``columnar_reads`` (V.E) — build blocks directly, skipping record
  assembly and the row→column transform.
- ``predicate_pushdown`` (V.F) — evaluate predicates while scanning and
  skip row groups whose footer statistics cannot match.
- ``dictionary_pushdown`` (V.G) — read dictionary pages and skip row
  groups whose dictionaries cannot match the predicate.
- ``lazy_reads`` (V.H) — materialize projected columns only for rows that
  pass the predicate.
- ``vectorized`` (V.I) — batch (numpy) decoding instead of one value at a
  time.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ReaderOptions:
    nested_column_pruning: bool = True
    columnar_reads: bool = True
    predicate_pushdown: bool = True
    dictionary_pushdown: bool = True
    lazy_reads: bool = True
    vectorized: bool = True

    @classmethod
    def all_enabled(cls) -> "ReaderOptions":
        return cls()

    @classmethod
    def all_disabled(cls) -> "ReaderOptions":
        return cls(
            nested_column_pruning=False,
            columnar_reads=False,
            predicate_pushdown=False,
            dictionary_pushdown=False,
            lazy_reads=False,
            vectorized=False,
        )
