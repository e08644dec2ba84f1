"""The Presto gateway: HTTP-redirect cluster federation (section VIII).

"Using HTTP Redirect, we developed a presto gateway.  The gateway will
redirect incoming queries to specific presto clusters, based on user name
and group information."

The design deliberately embodies the section XII.B lesson — a *general*
gateway that proxied traffic, estimated cost, and did admission control
"could not scale" and "is a failure".  This gateway therefore only
resolves a route and answers with a redirect; the client then talks to
the chosen cluster's coordinator directly, so the gateway is never on the
query's data path.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Optional

from repro.common.errors import (
    AdmissionRejectedError,
    GatewayError,
    InsufficientResourcesError,
    PrestoError,
)
from repro.execution.cluster import PrestoClusterSim, QueryExecution
from repro.federation.routing import RoutingTable
from repro.obs.trace import activate


@dataclass(frozen=True)
class Redirect:
    """An HTTP 307-style answer: resubmit to this cluster."""

    cluster_name: str
    status_code: int = 307


@dataclass
class GatewaySubmission:
    """One gateway submission and where it currently lives.

    ``handle`` is the engine-side query and owns the result;
    ``cluster_name``/``execution`` say where it was last admitted
    (``execution`` is that cluster's own record, ``cluster.queries[id]``).  All
    three are updated when the gateway re-routes the query (admission
    spill, drain eviction, retryable-failure failover — the last re-plans,
    so ``handle`` is the newest attempt).  ``tried`` lists every cluster
    the query was routed to, in order.
    """

    user: str
    handle: object  # repro.execution.engine.QueryHandle
    cluster_name: str = ""
    execution: Optional[QueryExecution] = None
    tried: list = field(default_factory=list, init=False)

    @property
    def attempts(self) -> int:
        return len(self.tried)


class PrestoGateway:
    """Routing-only federation gateway over multiple cluster simulations."""

    def __init__(self, metrics=None) -> None:
        self.routing = RoutingTable()
        self.clusters: dict[str, PrestoClusterSim] = {}
        self._drained: set[str] = set()
        self._fallback: Optional[str] = None
        self.redirects_served = 0
        self.failovers = 0
        self.load_sheds = 0
        self.all_sheds = 0
        # Unfinished submit_sql submissions by handle, so a drain can
        # re-point the ones it re-routes.
        self._submissions: dict[object, GatewaySubmission] = {}
        # Optional observability: ``gateway_redirects_total``,
        # ``gateway_queries_routed_total{cluster}`` and
        # ``gateway_failovers_total{cluster}``.
        self.metrics = metrics

    def _count(self, name: str, **labels) -> None:
        if self.metrics is not None:
            self.metrics.counter(name, **labels).inc()

    # -- cluster management -----------------------------------------------------

    def register_cluster(self, cluster: PrestoClusterSim) -> None:
        self.clusters[cluster.name] = cluster

    def drain_cluster(self, name: str, fallback: str) -> None:
        """Maintenance: stop routing to ``name``, sending traffic to
        ``fallback`` — "we will redirect traffic either to shared cluster,
        or newly launched new cluster, to guarantee no downtime".

        Queries already *running* on the drained cluster finish in place
        (their splits keep draining through its workers); queries still
        sitting in its admission queue never executed a task, so the
        gateway evicts them and resubmits their handles to ``fallback``
        with no double-publish risk.
        """
        if fallback not in self.clusters:
            raise GatewayError(f"fallback cluster {fallback!r} not registered")
        self._drained.add(name)
        self._fallback = fallback
        drained = self.clusters.get(name)
        if drained is None:
            return
        target = self.clusters[fallback]
        for run in drained.evict_queued():
            self.failovers += 1
            self._count("gateway_failovers_total", cluster=name)
            # A group path is cluster-local; rebuild it (minus the "root."
            # prefix) on the fallback cluster's tree.
            relative = run.group.path.partition(".")[2] or None
            execution = target.submit_handle(
                run.handle,
                user=run.user,
                resource_group=relative,
                memory_mb=run.memory_mb,
                priority=run.priority,
                on_finish=run.on_finish,
            )
            submission = self._submissions.get(run.handle)
            if submission is not None:
                submission.tried.append(fallback)
                submission.cluster_name = fallback
                submission.execution = execution

    def undrain_cluster(self, name: str) -> None:
        self._drained.discard(name)

    # -- request handling ----------------------------------------------------------

    def redirect(self, user: str, groups: tuple[str, ...] = ()) -> Redirect:
        """Resolve the target cluster and answer with a redirect."""
        self.redirects_served += 1
        self._count("gateway_redirects_total")
        cluster_name = self.routing.resolve(user, groups)
        if cluster_name in self._drained:
            cluster_name = self._fallback
        if cluster_name not in self.clusters:
            raise GatewayError(f"route points to unknown cluster {cluster_name!r}")
        return Redirect(cluster_name)

    def submit(
        self,
        user: str,
        split_durations_ms: list[float],
        groups: tuple[str, ...] = (),
    ) -> QueryExecution:
        """Client convenience: follow the redirect and submit directly.

        Note the two hops mirror production: the gateway answers instantly
        with a redirect and the query itself runs on the target coordinator.
        """
        redirect = self.redirect(user, groups)
        return self.clusters[redirect.cluster_name].submit_query(split_durations_ms)

    def queue_depths(self) -> dict[str, int]:
        """Per-cluster admission-queue depth, surfaced to routing.

        Also refreshes the ``gateway_cluster_queue_depth`` gauges, so
        dashboards see what the router saw.
        """
        depths = {
            name: cluster.queued_query_count()
            for name, cluster in self.clusters.items()
        }
        if self.metrics is not None:
            for name, depth in depths.items():
                self.metrics.gauge("gateway_cluster_queue_depth", cluster=name).set(
                    depth
                )
        return depths

    def submit_sql(
        self,
        user: str,
        engine,
        sql: str,
        groups: tuple[str, ...] = (),
        resource_group: Optional[str] = None,
        memory_mb: float = 100.0,
        priority: int = 0,
        max_failovers: Optional[int] = None,
    ) -> GatewaySubmission:
        """Route and admit ``sql`` without blocking on its execution.

        The gateway resolves the route, plans the query on ``engine``
        (coordinator work — synchronous, so USER_ERRORs raise here, as in
        production), and admits the resulting handle to the target
        cluster's resource groups.  Execution proceeds as the clusters'
        event loops are driven; blocking use is "submit, drive the
        clusters idle, ``submission.handle.result()``".

        **Spill.**  If the routed cluster sheds the query at admission
        (:class:`AdmissionRejectedError`), the gateway retries the
        remaining undrained clusters from the shallowest admission queue
        up — the per-cluster queue depth surfaced by :meth:`queue_depths`
        is exactly what this decision reads.  If every cluster sheds, the
        rejection with the *minimum* ``retry_after_ms`` propagates to the
        client: the soonest any cluster expects capacity is when the
        client should retry, not whenever the last-tried (deepest-queued)
        cluster frees up.  A query larger than a memory limit of its
        resource group on the routed cluster, or in a group allowing no
        running query there, is not shed but refused outright: the
        cluster's :class:`InsufficientResourcesError` propagates without
        spilling.

        **Failover** (the Twitter hybrid-cloud gateway pattern).  When a
        run fails with a *retryable* error (INTERNAL_ERROR / EXTERNAL —
        the cluster or its infrastructure, not the query), the gateway
        re-plans the query under the same trace and admits it on the next
        registered, undrained, untried cluster, up to ``max_failovers``
        re-routes (default: every other cluster once).  USER_ERRORs and
        INSUFFICIENT_RESOURCES stay failed — no amount of re-routing
        fixes a bad query or an over-large join.
        """
        redirect = self.redirect(user, groups)
        if max_failovers is None:
            max_failovers = len(self.clusters) - 1
        handle = engine.submit(sql)
        # One trace per gateway submission, rooted at the routing hop, so
        # a failed-over query's tree shows every cluster it touched.
        tracer = handle.trace
        span = tracer.open_span("gateway.submit", user=user) if tracer is not None else None
        submission = GatewaySubmission(user=user, handle=handle)

        def finished(run: QueryExecution) -> None:
            error = run.handle.error
            if (
                error is not None
                and error.retryable
                and submission.attempts <= max_failovers
                and (candidates := self._untried(submission))
            ):
                failed_on = submission.cluster_name
                try:
                    with activate(tracer) if tracer is not None else nullcontext():
                        rerun = engine.submit(sql)
                    self._admit(submission, rerun, candidates, admission)
                except PrestoError:
                    pass  # no cluster took the rerun: the first error stands
                else:
                    self.failovers += 1
                    self._count("gateway_failovers_total", cluster=failed_on)
                    return
            del self._submissions[submission.handle]
            if span is not None:
                tracer.close_span(span)

        admission = dict(
            user=user,
            resource_group=resource_group,
            memory_mb=memory_mb,
            priority=priority,
            on_finish=finished,
        )
        depths = self.queue_depths()
        spill_order = [redirect.cluster_name] + sorted(
            (name for name in self._untried(submission) if name != redirect.cluster_name),
            key=lambda name: (depths[name], name),
        )
        try:
            self._admit(submission, handle, spill_order, admission)
        except InsufficientResourcesError:
            if span is not None:
                tracer.close_span(span)
            raise
        if submission.attempts > 1:
            self.failovers += 1
            self._count("gateway_failovers_total", cluster=redirect.cluster_name)
        return submission

    def run_until_idle(self) -> None:
        """Drive every cluster until none has work left.

        A failover can hand a query to a cluster that was already idle,
        so one pass over the clusters is not enough.
        """
        while sum(cluster.run_until_idle() for cluster in self.clusters.values()):
            pass

    def _untried(self, submission: GatewaySubmission) -> list[str]:
        """Registered, undrained clusters ``submission`` has not been on."""
        return [
            name
            for name in self.clusters
            if name not in submission.tried and name not in self._drained
        ]

    def _admit(
        self, submission: GatewaySubmission, handle, order: list[str], admission: dict
    ) -> None:
        """Admit ``handle`` on the first cluster of ``order`` not shedding it.

        Raises the rejection with the minimum ``retry_after_ms`` if every
        cluster of the (non-empty) ``order`` sheds.
        """
        rejections: list[AdmissionRejectedError] = []
        for cluster_name in order:
            cluster = self.clusters[cluster_name]
            submission.tried.append(cluster_name)
            self._count("gateway_queries_routed_total", cluster=cluster_name)
            if handle.trace is not None:
                handle.trace.instant(
                    "gateway.route",
                    cluster=cluster_name,
                    attempt=submission.attempts,
                    queue_depth=cluster.queued_query_count(),
                )
            try:
                execution = cluster.submit_handle(handle, **admission)
            except AdmissionRejectedError as error:
                rejections.append(error)
                self.load_sheds += 1
                self._count("gateway_load_shed_total", cluster=cluster_name)
                continue
            self._submissions.pop(submission.handle, None)
            self._submissions[handle] = submission
            submission.handle = handle
            submission.cluster_name = cluster_name
            submission.execution = execution
            return
        self.all_sheds += 1
        self._count("gateway_all_shed_total")
        raise min(rejections, key=lambda error: error.retry_after_ms)
