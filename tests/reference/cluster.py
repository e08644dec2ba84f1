"""The linear-scan cluster: the runnable index's and the queue buckets' reference.

:class:`LinearScanCluster` schedules the way the cluster did before it
kept an index of admitted runs and bucketed its admission queue: split
assignment walks every record in ``cluster.queries``, finished ones
included, on every event, and a dequeue asks ``can_admit`` of every queued
run and takes the linear ``min`` over the ones that fit.  Everything else
(admission, placement, the event loop, metrics) is the production
cluster's, so a differential test that drives both over the same inputs
compares exactly the two scans.
"""

from __future__ import annotations

from repro.execution.cluster import PrestoClusterSim, QueryExecution


class LinearScanCluster(PrestoClusterSim):
    """A :class:`PrestoClusterSim` with one queue list and no runnable index."""

    def __init__(self, *args, **kwargs) -> None:
        self._linear_queue: list[QueryExecution] = []
        super().__init__(*args, **kwargs)

    def _enqueue(self, run: QueryExecution) -> None:
        self._linear_queue.append(run)

    def _drain_queue(self) -> list[QueryExecution]:
        runs = list(self._linear_queue)
        self._linear_queue.clear()
        return runs

    def _dequeue_next(self) -> None:
        while self._linear_queue:
            candidates = [
                run for run in self._linear_queue if run.group.can_admit(run.memory_mb)
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
            self._linear_queue.remove(chosen)
            chosen.group.dequeue()
            self._admit(chosen)

    def _assign_splits(self) -> None:
        now = self.clock.now_ms()
        for execution in self.queries.values():
            if execution.finished_at is not None or now < execution.started_at:
                continue
            if not self._place_pending(execution, now):
                return
