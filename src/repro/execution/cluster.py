"""Cluster control plane: coordinator, workers, scheduling, elasticity.

A discrete-event simulation of one Presto cluster's control plane:

- the **coordinator** admits queries, plans them (cost grows with worker
  count and concurrency — it "could become the bottleneck ... bigger than
  1000 machines, or more than 500 complex queries running concurrently",
  section VIII), and assigns splits to worker execution slots;
- **workers** process split work in parallel slots and support the
  graceful shutdown protocol of section IX: SHUTTING_DOWN → sleep grace
  period → coordinator stops sending tasks → drain active tasks → sleep
  grace period again → shut down;
- **crashes** are the ungraceful counterpart: :meth:`crash_worker` kills
  a worker without draining — its in-flight splits requeue at the front
  of their queries' pending work and re-run on surviving workers, the
  crashed worker is blacklisted from scheduling and from the affinity
  ring, and its data cache is lost;
- **expansion** is a registration: "New workers are automatically added to
  the existing cluster."

Splits are scheduled FIFO (submission order), so completion order, cache
warm-up order, and task records all follow the order work was produced.
Time is fully simulated; `run_until_idle` drives the event loop.

**One admission path.**  Every query is a steppable *handle* admitted by
:meth:`PrestoClusterSim.submit_handle` — an engine
:class:`~repro.execution.engine.QueryHandle`, or the pre-planned
:class:`SyntheticQuery` that :meth:`PrestoClusterSim.submit_query`
builds for the section VIII/IX simulations.  Admission goes through a
:class:`ResourceGroup` tree (memory + concurrency quotas, nested by
user/group, per the paper's resource-management section and the Twitter
serving-layer follow-up): a query queues per-user with priority/fair-share
dequeue when its group is at quota, is shed with
``AdmissionRejectedError`` (INSUFFICIENT_RESOURCES + retry-after) when
the queue exceeds its SLO, and — once admitted — has its tasks *pumped*
into the split-scheduling machinery one stage at a time.  Many admitted
queries interleave on the shared simulated clock; worker crashes requeue
in-flight splits across all of them.
"""

from __future__ import annotations

import enum
import heapq
import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.cache.data_cache import DataCacheConfig, TieredDataCache
from repro.common.clock import SimulatedClock
from repro.common.errors import AdmissionRejectedError, ExecutionError, PrestoError
from repro.common.ring import ConsistentHashRing
from repro.obs.trace import QueryTrace


class WorkerState(enum.Enum):
    ACTIVE = "active"
    SHUTTING_DOWN = "shutting_down"
    SHUT_DOWN = "shut_down"
    CRASHED = "crashed"


DEFAULT_GRACE_PERIOD_MS = 120_000.0  # shutdown.grace-period: 2 minutes


@dataclass
class SplitWork:
    """One unit of work: occupies one slot for ``duration_ms``.

    ``data_key`` identifies the underlying data (e.g. a file path); with
    affinity scheduling, splits with the same key prefer the same worker,
    whose local tiered data cache then serves repeat reads faster.
    ``data_size_bytes`` is how much data the split reads — what the cache
    charges against its tier capacities (None uses the cache's default
    entry estimate).
    """

    query_id: str
    duration_ms: float
    data_key: Optional[str] = None
    data_size_bytes: Optional[int] = None


@dataclass
class Worker:
    worker_id: str
    slots: int
    state: WorkerState = WorkerState.ACTIVE
    running: int = 0
    completed_splits: int = 0
    shutdown_requested_at: Optional[float] = None
    shutdown_visible_at: Optional[float] = None  # coordinator aware
    shut_down_at: Optional[float] = None
    crashed_at: Optional[float] = None
    # Worker-local tiered data cache (affinity scheduling): split data
    # this worker holds in its hot/SSD tiers.  Bounded — unlike the old
    # unbounded key set, a key can be evicted and miss again later.
    data_cache: Optional[TieredDataCache] = None
    cache_hits: int = 0

    def schedulable(self, now_ms: float) -> bool:
        """Whether the coordinator will send new tasks to this worker.

        During the first grace period the coordinator has not yet observed
        the shutdown and may still assign tasks.
        """
        if self.state is WorkerState.ACTIVE:
            return self.running < self.slots
        if self.state is WorkerState.SHUTTING_DOWN:
            visible = self.shutdown_visible_at is not None and now_ms >= self.shutdown_visible_at
            return not visible and self.running < self.slots
        return False


class QueryState(enum.Enum):
    """Lifecycle of a query on the cluster."""

    QUEUED = "queued"  # admitted to a queue, waiting for group capacity
    RUNNING = "running"  # holding group resources, tasks interleaving
    FINISHED = "finished"
    FAILED = "failed"
    EVICTED = "evicted"  # dequeued without running (cluster drain)


class ResourceGroup:
    """One node of the resource-group tree (memory + CPU-slot quotas).

    Mirrors Presto's nested resource groups: a query admits into a leaf
    (conventionally ``root.<team>.<user>``), and admission must satisfy
    the limits of *every* ancestor — ``running``/``memory_used_mb``
    aggregate up the tree.  All limits are optional:

    - ``max_running``: concurrent admitted queries (CPU-slot quota);
    - ``memory_limit_mb``: summed reserved memory of admitted queries;
    - ``max_queued``: queue capacity before hard load shedding;
    - ``queue_slo_ms``: estimated-wait SLO — a submission whose estimated
      queue time exceeds it is shed with a retry-after hint instead of
      silently blowing its latency budget.
    """

    def __init__(
        self,
        name: str,
        parent: Optional["ResourceGroup"] = None,
        max_running: Optional[int] = None,
        memory_limit_mb: Optional[float] = None,
        max_queued: Optional[int] = None,
        queue_slo_ms: Optional[float] = None,
    ) -> None:
        self.name = name
        self.parent = parent
        self.children: dict[str, "ResourceGroup"] = {}
        self.max_running = max_running
        self.memory_limit_mb = memory_limit_mb
        self.max_queued = max_queued
        self.queue_slo_ms = queue_slo_ms
        # Live usage (this node + descendants).
        self.running = 0
        self.queued = 0
        self.memory_used_mb = 0.0
        # Lifetime accounting.
        self.queries_completed = 0
        self.queries_shed = 0

    @property
    def path(self) -> str:
        if self.parent is None:
            return self.name
        return f"{self.parent.path}.{self.name}"

    def child(self, name: str, **limits) -> "ResourceGroup":
        """Get-or-create a child group; ``limits`` (re)configure it.

        Only the four limits are settable; the usage counters are live
        state that admission keeps consistent up the tree.
        """
        group = self.children.get(name)
        if group is None:
            group = ResourceGroup(name, parent=self)
            self.children[name] = group
        for key, value in limits.items():
            if key not in ("max_running", "memory_limit_mb", "max_queued", "queue_slo_ms"):
                raise ExecutionError(f"unknown resource-group limit {key!r}")
            setattr(group, key, value)
        return group

    def _chain(self):
        group: Optional[ResourceGroup] = self
        while group is not None:
            yield group
            group = group.parent

    def can_admit(self, memory_mb: float) -> bool:
        """Whether one more query fits under every limit up the tree."""
        for group in self._chain():
            if group.max_running is not None and group.running >= group.max_running:
                return False
            if (
                group.memory_limit_mb is not None
                and group.memory_used_mb + memory_mb > group.memory_limit_mb
            ):
                return False
        return True

    def acquire(self, memory_mb: float) -> None:
        for group in self._chain():
            group.running += 1
            group.memory_used_mb += memory_mb

    def release(self, memory_mb: float) -> None:
        for group in self._chain():
            group.running -= 1
            group.memory_used_mb -= memory_mb

    def enqueue(self) -> None:
        for group in self._chain():
            group.queued += 1

    def dequeue(self) -> None:
        for group in self._chain():
            group.queued -= 1


@dataclass
class SyntheticStep:
    """One pre-planned task: what the pump reads off a ``TaskRecord``."""

    sim_ms: float
    data_key: Optional[str] = None
    data_bytes: Optional[int] = None
    stage: int = 0


class SyntheticQuery:
    """A pre-planned single-stage query speaking the handle protocol.

    The synthetic workloads of the section VIII/IX simulations know their
    split durations up front; this hands them to the pump one step at a
    time, exactly as an engine ``QueryHandle`` hands over executed tasks.
    """

    trace = None

    def __init__(self, query_id: str, steps: list[SyntheticStep]) -> None:
        self.query_id = query_id
        self._steps = deque(steps)

    @property
    def done(self) -> bool:
        return not self._steps

    def peek_stage(self) -> Optional[int]:
        return self._steps[0].stage if self._steps else None

    def step(self) -> Optional[SyntheticStep]:
        return self._steps.popleft() if self._steps else None


@dataclass(eq=False)
class QueryExecution:
    """One query on one cluster: the single record of its lifecycle.

    Created by :meth:`PrestoClusterSim.submit_handle` (queued or
    admitted), kept in ``cluster.queries`` for the life of the cluster,
    and handed to ``on_finish`` when it reaches FINISHED or FAILED.
    """

    query_id: str
    handle: object  # QueryHandle or SyntheticQuery
    group: ResourceGroup
    user: str
    memory_mb: float
    priority: int
    sequence: int  # submission order; the FIFO tie-break
    submitted_at: float
    state: QueryState = QueryState.QUEUED
    admitted_at: Optional[float] = None
    started_at: float = 0.0  # admission + coordinator planning
    finished_at: Optional[float] = None
    # How the latency decomposes: queued at admission vs. running.
    queued_ms: float = 0.0
    running_ms: float = 0.0
    splits_total: int = 0
    splits_done: int = 0
    splits_requeued: int = 0
    # FIFO: splits schedule in submission order (popleft); crash-requeued
    # splits go back to the front so recovered work runs first.
    pending: deque = field(default_factory=deque)
    last_stage: Optional[int] = None
    admission_span: Optional[object] = None
    on_finish: Optional[Callable[["QueryExecution"], None]] = None

    @property
    def latency_ms(self) -> Optional[float]:
        if self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at


@dataclass
class CoordinatorModel:
    """The coordinator's capacity model.

    Planning and tracking costs grow superlinearly with cluster size and
    query concurrency, reproducing the section VIII bottleneck.
    """

    planning_base_ms: float = 50.0
    worker_tracking_factor: float = 1000.0  # degradation knee (machines)
    concurrency_factor: float = 500.0  # degradation knee (queries)

    def planning_cost_ms(self, workers: int, concurrent_queries: int) -> float:
        worker_load = (workers / self.worker_tracking_factor) ** 2
        concurrency_load = (concurrent_queries / self.concurrency_factor) ** 2
        return self.planning_base_ms * (1.0 + 4.0 * worker_load + 8.0 * concurrency_load)


# A split read through a worker's tiered data cache: a hot-tier hit cuts
# its remote-read work to this share of its duration, an SSD-tier hit to
# the second; each tier also charges its read latency.
CACHE_HIT_SPEEDUP = 0.3
SSD_HIT_SPEEDUP = 0.65


class PrestoClusterSim:
    """One simulated Presto cluster (one coordinator, many workers)."""

    def __init__(
        self,
        workers: int = 10,
        slots_per_worker: int = 4,
        clock: Optional[SimulatedClock] = None,
        coordinator: Optional[CoordinatorModel] = None,
        name: str = "cluster",
        affinity_scheduling: bool = False,
        data_cache: Optional[DataCacheConfig] = None,
        metrics=None,
    ) -> None:
        self.name = name
        # Optional observability: per-cluster counters (queries admitted,
        # splits completed/requeued, affinity cache hits) and an
        # active-worker gauge, labeled ``cluster=<name>``.
        self.metrics = metrics
        self.clock = clock or SimulatedClock()
        self.coordinator = coordinator or CoordinatorModel()
        self.slots_per_worker = slots_per_worker
        # Affinity scheduling (section VII, RaptorX): route splits for the
        # same data to the same worker so its local tiered cache gets
        # hits (``CACHE_HIT_SPEEDUP``, ``SSD_HIT_SPEEDUP``).
        self.affinity_scheduling = affinity_scheduling
        self.data_cache_config = data_cache or DataCacheConfig()
        # Placement: a consistent-hash ring of ACTIVE workers — one crash
        # or drain remaps only ~1/N of the keyspace, so the surviving
        # workers' caches stay warm (the old modulo pick remapped nearly
        # every key on any membership change).
        self.affinity_ring = ConsistentHashRing()
        self.workers: dict[str, Worker] = {}
        self._worker_ids = itertools.count()
        self._query_ids = itertools.count()
        # Every query ever submitted, in submission order (split
        # assignment iterates it, so the order is load-bearing).
        self.queries: dict[str, QueryExecution] = {}
        # Admission: the resource-group tree and the admission queue
        # (fair-share dequeue order is computed at dequeue time, so one
        # list suffices).
        self.root_group = ResourceGroup("root")
        self._queued_runs: list[QueryExecution] = []
        self._run_sequence = itertools.count()
        self._user_running: dict[str, int] = {}
        self._completed_runs = 0
        self._completed_running_ms = 0.0
        self.queries_shed = 0
        # In-flight split assignments: id -> (worker, execution, split).
        # Completion events resolve through this table so a crash can
        # cancel them and requeue the splits.
        self._assignments: dict[int, tuple[Worker, QueryExecution, SplitWork]] = {}
        self._assignment_sequence = itertools.count()
        # Event heap: (time_ms, sequence, callback)
        self._events: list[tuple[float, int, Callable[[], None]]] = []
        self._event_sequence = itertools.count()
        for _ in range(workers):
            self.add_worker()

    # -- observability --------------------------------------------------------

    def _count(self, name: str, amount: float = 1.0) -> None:
        if self.metrics is not None:
            self.metrics.counter(name, cluster=self.name).inc(amount)

    def _update_worker_gauge(self) -> None:
        if self.metrics is not None:
            self.metrics.gauge("cluster_active_workers", cluster=self.name).set(
                self.active_worker_count()
            )

    def _set_query_gauges(self) -> None:
        """One deterministic update per query state transition."""
        if self.metrics is not None:
            self.metrics.gauge("cluster_queries_running", cluster=self.name).set(
                self.running_query_count()
            )
            self.metrics.gauge("cluster_queries_queued", cluster=self.name).set(
                self.queued_query_count()
            )

    def _set_slot_gauge(self) -> None:
        """Busy worker slots; updated once per scheduling/completion event."""
        if self.metrics is not None:
            busy = sum(
                w.running
                for w in self.workers.values()
                if w.state in (WorkerState.ACTIVE, WorkerState.SHUTTING_DOWN)
            )
            self.metrics.gauge("cluster_busy_slots", cluster=self.name).set(busy)

    def _set_group_gauges(self, group: ResourceGroup) -> None:
        """Refresh gauges for ``group`` and every ancestor it rolls into."""
        if self.metrics is None:
            return
        node: Optional[ResourceGroup] = group
        while node is not None:
            labels = {"cluster": self.name, "group": node.path}
            self.metrics.gauge("resource_group_running", **labels).set(node.running)
            self.metrics.gauge("resource_group_queued", **labels).set(node.queued)
            self.metrics.gauge("resource_group_memory_mb", **labels).set(
                node.memory_used_mb
            )
            node = node.parent

    # -- elasticity -----------------------------------------------------------

    def add_worker(self, slots: Optional[int] = None) -> Worker:
        """Expansion: a new worker registers and immediately takes tasks.

        The worker starts with cold (empty) cache tiers and claims its
        share of the affinity ring — stealing only ~1/N of the keyspace
        from the incumbents.
        """
        worker = Worker(f"{self.name}-worker-{next(self._worker_ids)}", slots or self.slots_per_worker)
        worker.data_cache = TieredDataCache(
            self.data_cache_config, worker=worker.worker_id, metrics=self.metrics
        )
        self.workers[worker.worker_id] = worker
        self.affinity_ring.add(worker.worker_id)
        self._update_worker_gauge()
        self._schedule_pending()
        return worker

    def request_graceful_shutdown(
        self, worker_id: str, grace_period_ms: float = DEFAULT_GRACE_PERIOD_MS
    ) -> None:
        """Section IX: worker enters SHUTTING_DOWN and drains."""
        worker = self.workers[worker_id]
        if worker.state is not WorkerState.ACTIVE:
            return
        now = self.clock.now_ms()
        worker.state = WorkerState.SHUTTING_DOWN
        worker.shutdown_requested_at = now
        # Off the affinity ring immediately: a draining worker would
        # permanently capture every key hashing to it, and those keys'
        # caches could never re-warm elsewhere.
        self.affinity_ring.remove(worker_id)
        self._update_worker_gauge()
        # After sleeping the grace period the coordinator is aware and
        # stops sending tasks to the worker.
        worker.shutdown_visible_at = now + grace_period_ms
        self.call_at(now + grace_period_ms, lambda: self._try_finish_shutdown(worker, grace_period_ms))

    def _try_finish_shutdown(self, worker: Worker, grace_period_ms: float) -> None:
        if worker.state is not WorkerState.SHUTTING_DOWN:
            return
        if worker.running > 0:
            # Still draining; check again when a split completes (events
            # re-invoke this via _on_split_done).
            return
        # All tasks complete: sleep the grace period again so the
        # coordinator sees completion, then shut down.
        shutdown_time = self.clock.now_ms() + grace_period_ms

        def finish() -> None:
            worker.state = WorkerState.SHUT_DOWN
            worker.shut_down_at = self.clock.now_ms()
            self._update_worker_gauge()

        self.call_at(shutdown_time, finish)

    def crash_worker(self, worker_id: str) -> list[SplitWork]:
        """Kill a worker without draining (the ungraceful path).

        Every in-flight split on the worker requeues at the *front* of its
        query's pending work and re-runs on a surviving worker; the crashed
        worker is blacklisted (never scheduled again, out of the affinity
        ring) and both tiers of its data cache are gone.  Because
        placement is a consistent-hash ring, only the crashed worker's
        ~1/N share of the keyspace remaps — the survivors' caches stay
        warm.  Works in any state — a crash during SHUTTING_DOWN simply
        preempts the drain.  Returns the requeued splits.
        """
        worker = self.workers[worker_id]
        if worker.state in (WorkerState.SHUT_DOWN, WorkerState.CRASHED):
            return []
        worker.state = WorkerState.CRASHED
        worker.crashed_at = self.clock.now_ms()
        self._count("cluster_worker_crashes_total")
        self._update_worker_gauge()
        self.affinity_ring.remove(worker_id)
        if worker.data_cache is not None:
            worker.data_cache.clear()
        lost = [
            (assignment_id, execution, split)
            for assignment_id, (w, execution, split) in self._assignments.items()
            if w is worker
        ]
        requeued = []
        # Reverse order + appendleft keeps the splits' relative order at
        # the front of each query's deque.
        for assignment_id, execution, split in reversed(lost):
            del self._assignments[assignment_id]
            execution.pending.appendleft(split)
            execution.splits_requeued += 1
            self._count("cluster_splits_requeued_total")
            requeued.append(split)
        requeued.reverse()
        worker.running = 0
        self._schedule_pending()
        return requeued

    def crash_worker_at(self, time_ms: float, worker_id: str) -> None:
        """Schedule a crash event at an absolute simulated time."""
        self.call_at(time_ms, lambda: self.crash_worker(worker_id))

    def active_worker_count(self) -> int:
        return sum(1 for w in self.workers.values() if w.state is WorkerState.ACTIVE)

    # -- synthetic front door, query counts ---------------------------------------

    def submit_query(
        self,
        split_durations_ms: list[float],
        query_id: Optional[str] = None,
        split_keys: Optional[list[str]] = None,
        split_sizes: Optional[list[int]] = None,
    ) -> QueryExecution:
        """Admit a synthetic query whose work is the given split durations.

        The front door of the section VIII/IX simulations: wraps the
        durations in a :class:`SyntheticQuery` and admits it through
        :meth:`submit_handle` like any engine query.  ``split_keys``
        (optional, parallel to the durations) name the data each split
        reads, enabling affinity scheduling and cache hits;
        ``split_sizes`` (optional, parallel) are the splits' data sizes in
        bytes for cache capacity accounting.
        """
        if not split_durations_ms:
            raise ExecutionError("query needs at least one split")
        if split_keys is not None and len(split_keys) != len(split_durations_ms):
            raise ExecutionError("split_keys length must match split durations")
        if split_sizes is not None and len(split_sizes) != len(split_durations_ms):
            raise ExecutionError("split_sizes length must match split durations")
        steps = [
            SyntheticStep(
                duration,
                split_keys[i] if split_keys else None,
                split_sizes[i] if split_sizes else None,
            )
            for i, duration in enumerate(split_durations_ms)
        ]
        query_id = query_id or f"q{next(self._query_ids)}"
        return self.submit_handle(SyntheticQuery(query_id, steps))

    def running_query_count(self) -> int:
        """Admitted-and-unfinished queries (planning or executing).

        Queries sitting in an admission queue are *not* running — they
        hold no resources and no coordinator attention; count them with
        :meth:`queued_query_count`.
        """
        return sum(
            1 for run in self.queries.values() if run.state is QueryState.RUNNING
        )

    def queued_query_count(self) -> int:
        """Queries admitted to a queue but not yet holding resources."""
        return len(self._queued_runs)

    # -- resource groups, admission, pump -------------------------------------

    def resource_group(self, path: str, **limits) -> ResourceGroup:
        """Get-or-create a nested group by dotted path under the root.

        ``limits`` apply to the final segment: e.g.
        ``cluster.resource_group("etl.nightly", max_running=2)``.
        """
        group = self.root_group
        parts = [part for part in path.split(".") if part]
        if not parts:
            return self.root_group
        for part in parts[:-1]:
            group = group.child(part)
        return group.child(parts[-1], **limits)

    def _unique_query_id(self, base: str) -> str:
        if base not in self.queries:
            return base
        for retry in itertools.count(1):
            candidate = f"{base}-r{retry}"
            if candidate not in self.queries:
                return candidate
        raise AssertionError("unreachable")

    def _avg_running_ms(self) -> float:
        """Mean observed running time, seeding the queue-wait estimate."""
        if self._completed_runs:
            return self._completed_running_ms / self._completed_runs
        return 500.0

    def _estimated_wait_ms(self, group: ResourceGroup) -> float:
        """How long a new arrival would wait behind ``group``'s queue.

        Uses the *bottleneck* ancestor — the tightest ``max_running`` up
        the chain — and its aggregated queue, since siblings under that
        cap compete for the same slots.
        """
        cap: Optional[int] = None
        bottleneck = group
        for node in group._chain():
            if node.max_running is not None and (
                cap is None or node.max_running < cap
            ):
                cap = node.max_running
                bottleneck = node
        if cap is None:
            return 0.0
        waves = bottleneck.queued // cap + 1
        return waves * self._avg_running_ms()

    def submit_handle(
        self,
        handle,
        user: str = "anonymous",
        resource_group=None,
        memory_mb: float = 100.0,
        priority: int = 0,
        on_finish: Optional[Callable[[QueryExecution], None]] = None,
    ) -> QueryExecution:
        """Admit a steppable query — the one admission state machine.

        ``handle`` is a :meth:`repro.execution.engine.PrestoEngine.submit`
        result (or anything speaking its protocol: ``query_id``, ``done``,
        ``peek_stage()``, ``step()``, ``trace``).  Returns immediately
        with the query's :class:`QueryExecution` — the same object
        ``cluster.queries`` keeps and ``on_finish`` later receives; drive
        :meth:`run_until_idle` (or keep submitting) and collect the result
        from ``handle.result()``.

        ``resource_group`` is a dotted path, a :class:`ResourceGroup`, or
        None for the per-user default queue ``root.<user>``.  If the
        group is at quota the query queues (fair-share dequeue); if the
        queue itself is over capacity or the estimated wait breaches the
        group's SLO, the query is shed with
        :class:`~repro.common.errors.AdmissionRejectedError` carrying a
        retry-after hint — never silently dropped.
        """
        if isinstance(resource_group, ResourceGroup):
            group = resource_group
        else:
            group = self.resource_group(resource_group or user)
        now = self.clock.now_ms()
        # Queue behind earlier arrivals of the same group — direct
        # admission while the group has a backlog would reorder peers.
        must_queue = group.queued > 0 or not group.can_admit(memory_mb)
        if must_queue:
            estimated = self._estimated_wait_ms(group)
            # Queue capacity and SLO are enforced along the whole chain:
            # a parent's limit protects it from the sum of its children.
            over_capacity = any(
                node.max_queued is not None and node.queued >= node.max_queued
                for node in group._chain()
            )
            over_slo = any(
                node.queue_slo_ms is not None and estimated > node.queue_slo_ms
                for node in group._chain()
            )
            if over_capacity or over_slo:
                group.queries_shed += 1
                self.queries_shed += 1
                self._count("cluster_queries_shed_total")
                retry_after = estimated if estimated > 0 else self._avg_running_ms()
                raise AdmissionRejectedError(
                    f"{self.name}: resource group {group.path} "
                    + ("queue full" if over_capacity else "queue over SLO")
                    + f" ({group.queued} queued)",
                    retry_after_ms=retry_after,
                )
        query_id = self._unique_query_id(f"{self.name}-{handle.query_id}")
        run = QueryExecution(
            query_id,
            handle=handle,
            group=group,
            user=user,
            memory_mb=memory_mb,
            priority=priority,
            sequence=next(self._run_sequence),
            submitted_at=now,
            on_finish=on_finish,
        )
        self.queries[query_id] = run
        self._count("cluster_queries_total")
        if must_queue:
            group.enqueue()
            self._queued_runs.append(run)
            self._count("cluster_queries_queued_total")
            self._set_query_gauges()
            self._set_group_gauges(group)
        else:
            self._admit(run)
        return run

    def _admit(self, run: QueryExecution) -> None:
        """Grant resources and schedule the first pump after planning."""
        now = self.clock.now_ms()
        run.state = QueryState.RUNNING
        run.admitted_at = now
        run.group.acquire(run.memory_mb)
        self._user_running[run.user] = self._user_running.get(run.user, 0) + 1
        run.queued_ms = now - run.submitted_at
        tracer = run.handle.trace
        if tracer is not None:
            run.admission_span = tracer.open_span(
                "cluster.admission",
                cluster=self.name,
                group=run.group.path,
                user=run.user,
                queued_ms=run.queued_ms,
            )
        if self.metrics is not None:
            self.metrics.histogram("cluster_queued_ms", cluster=self.name).observe(
                run.queued_ms
            )
        # planning_cost_ms's concurrent_queries argument sees the *real*
        # number of in-flight queries (this one included).
        planning = self.coordinator.planning_cost_ms(
            len(
                [
                    w
                    for w in self.workers.values()
                    if w.state is not WorkerState.SHUT_DOWN
                ]
            ),
            self.running_query_count(),
        )
        run.started_at = now + planning
        self._set_query_gauges()
        self._set_group_gauges(run.group)
        self.call_at(run.started_at, lambda: self._pump(run))

    def _pump(self, run: QueryExecution) -> None:
        """Advance one query: dispatch its ready tasks as split work.

        Steps the handle through the current stage, turning each executed
        task into a :class:`SplitWork` on the ordinary FIFO/affinity
        scheduling path (so worker crashes requeue any query's in-flight
        splits the same way).  Stops at stage barriers — the
        next stage's tasks are not planned until every dispatched split
        of the current stage has drained through the workers.
        """
        if run.state is not QueryState.RUNNING:
            return
        handle = run.handle
        dispatched = False
        while not handle.done:
            next_stage = handle.peek_stage()
            if (
                run.last_stage is not None
                and next_stage != run.last_stage
                and run.splits_done < run.splits_total
            ):
                break  # stage barrier: previous stage still in flight
            try:
                step = handle.step()
            except PrestoError:
                self._finish_run(run, failed=True)
                return
            if step is None:
                break
            run.last_stage = step.stage
            run.splits_total += 1
            run.pending.append(
                SplitWork(
                    run.query_id,
                    step.sim_ms,
                    step.data_key,
                    step.data_bytes,
                )
            )
            dispatched = True
        if handle.done and run.splits_done == run.splits_total and not run.pending:
            self._finish_run(run)
            return
        if dispatched:
            self._schedule_pending()

    def _cancel_splits(self, execution: QueryExecution) -> None:
        """Withdraw a failed query's dispatched-but-unfinished splits."""
        stale = [
            assignment_id
            for assignment_id, (_, owner, _) in self._assignments.items()
            if owner is execution
        ]
        for assignment_id in stale:
            worker, _, _ = self._assignments.pop(assignment_id)
            worker.running -= 1
        execution.pending.clear()
        self._set_slot_gauge()

    def _finish_run(self, run: QueryExecution, failed: bool = False) -> None:
        if run.state is not QueryState.RUNNING:
            return
        now = self.clock.now_ms()
        run.state = QueryState.FAILED if failed else QueryState.FINISHED
        if failed:
            self._cancel_splits(run)
            self._count("cluster_queries_failed_total")
        run.finished_at = now
        run.running_ms = now - run.admitted_at
        run.group.release(run.memory_mb)
        run.group.queries_completed += 1
        self._user_running[run.user] -= 1
        self._completed_runs += 1
        self._completed_running_ms += run.running_ms
        tracer = run.handle.trace
        if tracer is not None and run.admission_span is not None:
            run.admission_span.set(running_ms=run.running_ms, state=run.state.value)
            tracer.close_span(run.admission_span)
        if self.metrics is not None:
            self.metrics.histogram("cluster_running_ms", cluster=self.name).observe(
                run.running_ms
            )
        self._set_query_gauges()
        self._set_group_gauges(run.group)
        if run.on_finish is not None:
            run.on_finish(run)
        self._dequeue_next()

    def _dequeue_next(self) -> None:
        """Admit queued queries while capacity lasts (fair-share order).

        Pick order: highest priority first, then the user with the
        fewest queries currently running (fair share), then submission
        order — all deterministic.
        """
        while self._queued_runs:
            candidates = [
                run for run in self._queued_runs if run.group.can_admit(run.memory_mb)
            ]
            if not candidates:
                return
            chosen = min(
                candidates,
                key=lambda run: (
                    -run.priority,
                    self._user_running.get(run.user, 0),
                    run.sequence,
                ),
            )
            self._queued_runs.remove(chosen)
            chosen.group.dequeue()
            self._admit(chosen)

    def evict_queued(self) -> list[QueryExecution]:
        """Drop every queued (never-admitted) query, e.g. for a drain.

        The runs never executed a task — no split was dispatched and no
        page published — so a gateway can resubmit their handles to
        another cluster without any double-publish risk.  Returns the
        evicted runs in queue order.
        """
        evicted = list(self._queued_runs)
        self._queued_runs.clear()
        now = self.clock.now_ms()
        for run in evicted:
            run.group.dequeue()
            run.state = QueryState.EVICTED
            run.finished_at = now
            run.queued_ms = now - run.submitted_at
            self._count("cluster_queries_evicted_total")
            self._set_group_gauges(run.group)
        self._set_query_gauges()
        return evicted

    # -- cluster timeline -----------------------------------------------------

    def timeline_trace(self) -> QueryTrace:
        """The cluster-wide query timeline on the shared simulated clock.

        Unlike a per-query trace (private clock anchored at 0), these
        spans carry cluster-clock timestamps — overlapping ``cluster
        .query`` spans are the visible proof that more than one query was
        in flight at once.
        """
        trace = QueryTrace()
        root = trace.add_span(
            "cluster.timeline", 0.0, self.clock.now_ms(), cluster=self.name
        )
        for run in sorted(
            self._served_runs(), key=lambda r: (r.admitted_at, r.query_id)
        ):
            trace.add_span(
                "cluster.query",
                run.admitted_at,
                run.finished_at,
                parent=root,
                query_id=run.query_id,
                user=run.user,
                group=run.group.path,
                state=run.state.value,
                queued_ms=run.queued_ms,
                running_ms=run.running_ms,
            )
        return trace

    def _served_runs(self) -> list[QueryExecution]:
        """Queries that were admitted and have ended (FINISHED or FAILED)."""
        return [
            run
            for run in self.queries.values()
            if run.state in (QueryState.FINISHED, QueryState.FAILED)
        ]

    def max_concurrent_running(self) -> int:
        """Peak number of concurrently-running served queries."""
        events: list[tuple[float, int]] = []
        for run in self._served_runs():
            events.append((run.admitted_at, 1))
            events.append((run.finished_at, -1))
        events.sort()
        current = peak = 0
        for _, delta in events:
            current += delta
            peak = max(peak, current)
        return peak

    # -- event loop -----------------------------------------------------------------

    def call_at(self, time_ms: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` at an absolute simulated time."""
        heapq.heappush(self._events, (time_ms, next(self._event_sequence), callback))

    def run_until_idle(self, max_events: int = 1_000_000) -> int:
        """Process events until no work remains; returns how many ran."""
        processed = 0
        while self._events:
            time_ms, _, callback = heapq.heappop(self._events)
            if time_ms > self.clock.now_ms():
                self.clock.advance(time_ms - self.clock.now_ms())
            callback()
            processed += 1
            if processed > max_events:
                raise ExecutionError("cluster simulation did not converge")
        return processed

    def _schedule_pending(self) -> None:
        self._assign_splits()
        self._set_slot_gauge()

    def _assign_splits(self) -> None:
        now = self.clock.now_ms()
        for execution in self.queries.values():
            if execution.finished_at is not None or now < execution.started_at:
                continue
            while execution.pending:
                # FIFO: schedule splits in submission order so completion
                # order, cache warm-up, and records match the order work
                # was produced.
                split = execution.pending[0]
                worker = self._pick_worker(now, split)
                if worker is None:
                    return  # no capacity; a completion event will reschedule
                execution.pending.popleft()
                worker.running += 1
                duration = split.duration_ms
                if split.data_key is not None and worker.data_cache is not None:
                    # The worker reads the split's data through its tiered
                    # cache: a hot hit skips the remote read almost
                    # entirely, an SSD hit costs more but still beats
                    # remote, a miss pays full price and warms the tiers.
                    read = worker.data_cache.read(
                        split.data_key, split.data_size_bytes
                    )
                    if read.tier == "hot":
                        duration = duration * CACHE_HIT_SPEEDUP
                    elif read.tier == "ssd":
                        duration = duration * SSD_HIT_SPEEDUP
                    duration += read.latency_ms
                    if read.hit:
                        worker.cache_hits += 1
                        self._count("cluster_affinity_cache_hits_total")
                assignment_id = next(self._assignment_sequence)
                self._assignments[assignment_id] = (worker, execution, split)
                self.call_at(
                    now + duration,
                    lambda a=assignment_id: self._on_split_done(a),
                )

    def _pick_worker(self, now_ms: float, split: Optional[SplitWork] = None) -> Optional[Worker]:
        candidates = [w for w in self.workers.values() if w.schedulable(now_ms)]
        if not candidates:
            return None
        if (
            self.affinity_scheduling
            and split is not None
            and split.data_key is not None
        ):
            # Soft affinity: the consistent-hash ring names the preferred
            # worker; fall through to least-loaded when it has no free
            # slot.  The ring hashes with CRC32 (stable across processes —
            # ``hash()`` would re-route every key on restart) and holds
            # ACTIVE workers only, so draining or dead workers never
            # capture keys.  Unlike the old ``stable_hash % len(workers)``
            # pick, ring membership changes remap only the departed
            # worker's ~1/N key share instead of nearly all keys.
            preferred_id = self.affinity_ring.lookup(split.data_key)
            if preferred_id is not None:
                preferred = self.workers[preferred_id]
                if preferred.schedulable(now_ms):
                    return preferred
        return min(candidates, key=lambda w: w.running / w.slots)

    def _on_split_done(self, assignment_id: int) -> None:
        assignment = self._assignments.pop(assignment_id, None)
        if assignment is None:
            # The worker crashed mid-split; the split was requeued and its
            # re-run's own completion event finishes it.
            return
        worker, execution, _ = assignment
        worker.running -= 1
        worker.completed_splits += 1
        self._count("cluster_splits_completed_total")
        execution.splits_done += 1
        # splits_total grows as stages dispatch, so completion is decided
        # by the pump (handle done + every dispatched split drained).
        self._pump(execution)
        if worker.state is WorkerState.SHUTTING_DOWN and worker.running == 0:
            visible = (
                worker.shutdown_visible_at is not None
                and self.clock.now_ms() >= worker.shutdown_visible_at
            )
            if visible:
                self._try_finish_shutdown(
                    worker,
                    worker.shutdown_visible_at - worker.shutdown_requested_at,  # type: ignore[operator]
                )
        self._schedule_pending()
