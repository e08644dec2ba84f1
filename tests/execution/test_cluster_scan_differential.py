"""The runnable index and the queue buckets schedule as the linear scans did.

Split assignment walks an index of admitted, unfinished runs, and the
admission queue keeps FIFO buckets whose heads alone are ranked.  Both
must pick what :class:`~tests.reference.cluster.LinearScanCluster` (every
record walked, every queued run ranked) picks.  Hypothesis drives the two
clusters over the same generated storms: nested groups with running,
memory and queue limits; mixed priorities, users and memory; timed
arrivals, crashes, graceful shutdowns, added workers, queue evictions,
queries that fail mid-run, affinity on and off.  Every run's lifecycle,
the timeline and the metrics snapshot must match.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common.clock import SimulatedClock
from repro.common.errors import ExecutionError, InsufficientResourcesError
from repro.execution.cluster import PrestoClusterSim, SyntheticQuery, SyntheticStep
from repro.obs.metrics import MetricsRegistry
from tests.reference.cluster import LinearScanCluster

GROUPS = ("a", "a.x", "a.y", "b", "b.z")
TARGETS = ("a.x", "a.y", "b", "b.z")


class FailingQuery(SyntheticQuery):
    """A synthetic query whose ``fail_at``-th step raises, as a task failure would."""

    def __init__(self, query_id: str, steps: list[SyntheticStep], fail_at: int) -> None:
        super().__init__(query_id, steps)
        self._left = fail_at

    def step(self):
        if self._left == 0:
            raise ExecutionError("task failed")
        self._left -= 1
        return super().step()


limits = st.fixed_dictionaries(
    {
        "max_running": st.sampled_from([None, 1, 2, 3]),
        "memory_limit_mb": st.sampled_from([None, 150.0, 300.0, 500.0]),
        "max_queued": st.sampled_from([None, 2, 5, 12]),
        "queue_slo_ms": st.sampled_from([None, None, None, 4000.0]),
    }
)

query = st.fixed_dictionaries(
    {
        "arrival_ms": st.integers(0, 800),
        "user": st.sampled_from(["u0", "u1", "u2", "u3"]),
        "group": st.sampled_from(TARGETS),
        "priority": st.sampled_from([0, 0, 1, 2]),
        "memory_mb": st.sampled_from([50.0, 100.0, 200.0]),
        # (duration, stage advance, data key) per step.
        "steps": st.lists(
            st.tuples(
                st.integers(1, 400),
                st.booleans(),
                st.sampled_from([None, "k0", "k1", "k2", "k3"]),
            ),
            min_size=1,
            max_size=4,
        ),
        "fail_at": st.sampled_from([None, None, None, 0, 1, 2]),
    }
)

event = st.one_of(
    st.tuples(st.just("crash"), st.integers(0, 3000), st.integers(0, 4)),
    st.tuples(st.just("shutdown"), st.integers(0, 3000), st.integers(0, 4), st.integers(1, 800)),
    st.tuples(st.just("add_worker"), st.integers(0, 3000)),
    st.tuples(st.just("evict"), st.integers(0, 3000)),
)

scenario = st.fixed_dictionaries(
    {
        "workers": st.integers(1, 4),
        "slots": st.integers(1, 3),
        "affinity": st.booleans(),
        "groups": st.fixed_dictionaries({path: limits for path in GROUPS}),
        "queries": st.lists(query, min_size=1, max_size=30),
        "events": st.lists(event, max_size=4),
    }
)


def replay(cluster_class, spec: dict):
    """Run ``spec`` on a fresh ``cluster_class``; everything observable."""
    metrics = MetricsRegistry()
    cluster = cluster_class(
        workers=spec["workers"],
        slots_per_worker=spec["slots"],
        clock=SimulatedClock(),
        affinity_scheduling=spec["affinity"],
        metrics=metrics,
    )
    for path in GROUPS:
        cluster.resource_group(path, **spec["groups"][path])
    outcomes = []

    def submit(index: int, q: dict) -> None:
        stage = 0
        steps = []
        for duration, advance, key in q["steps"]:
            stage += advance
            steps.append(SyntheticStep(float(duration), key, None, stage))
        name = f"q{index}"
        if q["fail_at"] is None:
            handle = SyntheticQuery(name, steps)
        else:
            handle = FailingQuery(name, steps, q["fail_at"])
        try:
            run = cluster.submit_handle(
                handle,
                user=q["user"],
                resource_group=q["group"],
                memory_mb=q["memory_mb"],
                priority=q["priority"],
            )
        except InsufficientResourcesError as error:  # shed or never admissible
            outcomes.append((name, type(error).__name__, str(error)))
            return
        outcomes.append((name, run.query_id, run.state.value))

    for index, q in enumerate(spec["queries"]):
        cluster.call_at(float(q["arrival_ms"]), lambda i=index, q=q: submit(i, q))
    worker_ids = list(cluster.workers)
    for kind, at, *args in spec["events"]:
        if kind == "crash":
            worker_id = worker_ids[args[0] % len(worker_ids)]
            cluster.crash_worker_at(float(at), worker_id)
        elif kind == "shutdown":
            worker_id = worker_ids[args[0] % len(worker_ids)]
            cluster.call_at(
                float(at),
                lambda w=worker_id, g=float(args[1]): cluster.request_graceful_shutdown(w, g),
            )
        elif kind == "add_worker":
            cluster.call_at(float(at), cluster.add_worker)
        else:
            cluster.call_at(
                float(at),
                lambda: outcomes.append(
                    ("evicted", [run.query_id for run in cluster.evict_queued()])
                ),
            )
    processed = cluster.run_until_idle()
    runs = [
        (
            run.query_id,
            run.state.value,
            run.admitted_at,
            run.started_at,
            run.finished_at,
            run.queued_ms,
            run.running_ms,
            run.splits_total,
            run.splits_done,
            run.splits_requeued,
        )
        for run in cluster.queries.values()
    ]
    workers = [
        (w.worker_id, w.state.value, w.running, w.completed_splits, w.cache_hits)
        for w in cluster.workers.values()
    ]
    return {
        "processed": processed,
        "now": cluster.clock.now_ms(),
        "outcomes": outcomes,
        "runs": runs,
        "workers": workers,
        "queued": cluster.queued_query_count(),
        "timeline": cluster.timeline_trace().to_json(),
        "max_concurrent": cluster.max_concurrent_running(),
        "metrics": metrics.to_json(),
    }


NO_LIMITS = {"max_running": None, "memory_limit_mb": None, "max_queued": None, "queue_slo_ms": None}


def plain_query(user: str, duration: int = 100, priority: int = 0) -> dict:
    return {
        "arrival_ms": 0,
        "user": user,
        "group": "a.x",
        "priority": priority,
        "memory_mb": 100.0,
        "steps": [(duration, False, None)],
        "fail_at": None,
    }


# Two slots under "a".  When u0's short query ends, u2's priority wins;
# when that ends, u1 (none running) beats u0's older query (one running).
# A dequeue that drops either term schedules differently from the reference.
CONTENDED = {
    "workers": 2,
    "slots": 2,
    "affinity": False,
    "groups": {path: dict(NO_LIMITS, max_running=2 if path == "a" else None) for path in GROUPS},
    "queries": [
        plain_query("u0"),
        plain_query("u0", duration=300),
        plain_query("u0"),
        plain_query("u1"),
        plain_query("u2", priority=1),
    ],
    "events": [],
}


@settings(max_examples=150, deadline=None)
@given(scenario)
@example(CONTENDED)
def test_index_and_buckets_schedule_as_the_linear_scans(spec):
    assert replay(PrestoClusterSim, spec) == replay(LinearScanCluster, spec)


def test_the_reference_scans_every_record():
    """The reference is not the index: its queue is one list, walked whole."""
    cluster = LinearScanCluster(workers=1, slots_per_worker=1)
    cluster.resource_group("g", max_running=1)
    for name in ("first", "second", "third"):
        cluster.submit_handle(
            SyntheticQuery(name, [SyntheticStep(10.0)]), resource_group="g"
        )
    assert not cluster._queue and len(cluster._linear_queue) == 2
    cluster.run_until_idle()
    assert [run.state.value for run in cluster.queries.values()] == ["finished"] * 3
