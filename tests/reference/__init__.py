"""Reference implementations: the slow, obvious lanes the engine replaced.

Nothing under ``src/`` imports this package; the differential tests use
each module as their oracle and the benchmarks as their baseline lane
(benchmark scripts reach it through ``benchmarks/_harness.py``, which puts
the repository root on ``sys.path``).

- :mod:`tests.reference.interpreter`: the row-at-a-time expression
  interpreter, against :mod:`repro.core.compiler`.
- :mod:`tests.reference.operators`: the row-at-a-time aggregation (its
  ``GroupFold``), hash join and sort, against
  :mod:`repro.execution.operators`.
- :mod:`tests.reference.hashing`: the exchange hash one key tuple at a
  time in plain Python ints, against :func:`repro.execution.kernels.block_hash`.
- :mod:`tests.reference.dynamic_filters`: the row-at-a-time build of a
  join's dynamic filter and the per-value rule a probe row is kept by,
  against the scheduler's build from key codes and the filter's mask.
- :mod:`tests.reference.pipeline`: the single-pipeline run of a whole
  plan, against staged execution.
- :mod:`tests.reference.lakehouse`: the replayed-log oracle and the
  exactly-once visibility check of the streaming lakehouse.
"""
