"""Deterministic fault injection for staged execution.

The paper's operational sections are about surviving failure — graceful
shutdown (IX), the coordinator bottleneck and gateway federation (VIII),
"Insufficient Resources" (XII.C) — but failures are useless for
experiments unless they are *reproducible*.  The :class:`FaultInjector`
therefore decides every failure by a stable hash of
``(seed, kind, query_id, stage, task, attempt)`` rather than a random
number generator: the same seed always fails the same attempts of the
same tasks, two runs with the same seed produce byte-identical
``QueryStats.task_records``, and sweeping the seed samples independent
failure patterns.  The coin is MD5, not the engine's CRC32
``stable_hash`` — CRC32 is linear, so nearby seeds and task indexes
would fail in correlated pairs instead of independently.

Three levels can fail, each with its own rate:

- **tasks** (``task_failure_rate``) — a whole task attempt in the
  ``QueryScheduler`` fails before doing work, default INTERNAL_ERROR
  (a worker died mid-task);
- **splits** (``split_failure_rate``) — reading one assigned connector
  split fails, always EXTERNAL (the storage system refused the read);
- **storage requests** (``storage_failure_rate``) — the adapter from
  :meth:`storage_failure_injector` plugs into the simulated
  ``S3Client(failure_injector=...)`` hook and fails that fraction of
  requests deterministically by call sequence.

Because the retry loop hashes the *attempt number* into the decision, a
failed task usually succeeds on retry — exactly the transient-failure
profile task retries exist for.  Rates of 1.0 make a level always fail,
which is how the tests pin down fail-fast vs retry-to-the-bound behavior.
"""

from __future__ import annotations

import hashlib
import itertools
from typing import Callable

from repro.common.errors import ErrorCategory, InjectedFaultError

_HASH_SPACE = 2**64


class FaultInjector:
    """Seeded, hash-driven failure source for tasks, splits, and storage."""

    SPLIT_ERROR_CATEGORY = ErrorCategory.EXTERNAL

    def __init__(
        self,
        seed: int = 0,
        task_failure_rate: float = 0.0,
        split_failure_rate: float = 0.0,
        storage_failure_rate: float = 0.0,
        pipeline_failure_rate: float = 0.0,
        task_error_category: ErrorCategory = ErrorCategory.INTERNAL_ERROR,
    ) -> None:
        for name, rate in (
            ("task_failure_rate", task_failure_rate),
            ("split_failure_rate", split_failure_rate),
            ("storage_failure_rate", storage_failure_rate),
            ("pipeline_failure_rate", pipeline_failure_rate),
        ):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        self.seed = seed
        self.task_failure_rate = task_failure_rate
        self.split_failure_rate = split_failure_rate
        self.storage_failure_rate = storage_failure_rate
        self.pipeline_failure_rate = pipeline_failure_rate
        self.task_error_category = task_error_category
        self.tasks_failed = 0
        self.splits_failed = 0
        self.storage_requests_failed = 0
        self.pipeline_crashes = 0
        self._storage_sequence = itertools.count()

    # -- the deterministic coin ---------------------------------------------

    def _chance(self, *key) -> float:
        """Uniform value in [0, 1) derived only from seed + key."""
        data = repr((self.seed,) + key).encode("utf-8", "surrogatepass")
        digest = hashlib.md5(data).digest()
        return int.from_bytes(digest[:8], "big") / _HASH_SPACE

    # -- task level ----------------------------------------------------------

    def should_fail_task(
        self, query_id: str, stage: int, task: int, attempt: int
    ) -> bool:
        return (
            self._chance("task", query_id, stage, task, attempt)
            < self.task_failure_rate
        )

    def maybe_fail_task(
        self, query_id: str, stage: int, task: int, attempt: int
    ) -> None:
        """Raise an :class:`InjectedFaultError` if this attempt is doomed."""
        if self.should_fail_task(query_id, stage, task, attempt):
            self.tasks_failed += 1
            raise InjectedFaultError(
                f"injected task failure: query {query_id!r} stage {stage} "
                f"task {task} attempt {attempt}",
                category=self.task_error_category,
            )

    # -- split level ---------------------------------------------------------

    def should_fail_split(
        self, query_id: str, stage: int, task: int, split_key: str, attempt: int
    ) -> bool:
        return (
            self._chance("split", query_id, stage, task, split_key, attempt)
            < self.split_failure_rate
        )

    def maybe_fail_split(
        self, query_id: str, stage: int, task: int, split_key: str, attempt: int
    ) -> None:
        if self.should_fail_split(query_id, stage, task, split_key, attempt):
            self.splits_failed += 1
            raise InjectedFaultError(
                f"injected split read failure: query {query_id!r} stage {stage} "
                f"task {task} split {split_key!r} attempt {attempt}",
                category=self.SPLIT_ERROR_CATEGORY,
            )

    # -- pipeline level ------------------------------------------------------
    #
    # Long-running background components (the streaming ingestion pipeline,
    # the compactor) are not task attempts: they crash at *commit-protocol
    # points* — just before appending a batch, just before committing
    # offsets, between writing a data file and committing the snapshot —
    # and then restart and recover.  The coin hashes the component name,
    # the step (poll / compaction cycle), the sub-unit (partition), and the
    # injection point, so a given seed always crashes the same points of
    # the same cycles, independent of wall interleaving.

    def should_crash_pipeline(
        self, component: str, step: int, unit: int, point: str
    ) -> bool:
        return (
            self._chance("pipeline", component, step, unit, point)
            < self.pipeline_failure_rate
        )

    def maybe_crash_pipeline(
        self, component: str, step: int, unit: int, point: str
    ) -> None:
        """Raise an :class:`InjectedFaultError` if this point is doomed."""
        if self.should_crash_pipeline(component, step, unit, point):
            self.pipeline_crashes += 1
            raise InjectedFaultError(
                f"injected pipeline crash: {component} step {step} "
                f"unit {unit} at {point!r}",
                category=ErrorCategory.INTERNAL_ERROR,
            )

    # -- storage level -------------------------------------------------------

    def storage_failure_injector(self) -> Callable[[str], bool]:
        """Adapter for ``S3Client(failure_injector=...)``.

        Each call draws the next value of an internal sequence, so a fixed
        request order (which the simulation guarantees) fails the same
        requests on every run.
        """

        def inject(operation: str) -> bool:
            draw = self._chance("storage", operation, next(self._storage_sequence))
            failed = draw < self.storage_failure_rate
            if failed:
                self.storage_requests_failed += 1
            return failed

        return inject
