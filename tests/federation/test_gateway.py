"""Tests for the federation gateway and routing table (section VIII)."""

import pytest

from repro.common.errors import (
    ExecutionError,
    GatewayError,
    InsufficientResourcesError,
    SemanticError,
)
from repro.connectors.memory import MemoryConnector
from repro.core.types import BIGINT
from repro.execution.cluster import PrestoClusterSim
from repro.execution.engine import PrestoEngine
from repro.execution.faults import FaultInjector
from repro.federation.gateway import PrestoGateway
from repro.federation.routing import RoutingTable
from repro.planner.analyzer import Session


def make_gateway():
    gateway = PrestoGateway()
    for name in ("dedicated-a", "dedicated-b", "shared"):
        gateway.register_cluster(PrestoClusterSim(workers=2, name=name))
    gateway.routing.assign_user("alice", "dedicated-a")
    gateway.routing.assign_group("analytics", "dedicated-b")
    gateway.routing.set_default("shared")
    return gateway


def make_engine(**kwargs):
    connector = MemoryConnector(split_size=10)
    connector.create_table("db", "t", [("v", BIGINT)], [(i,) for i in range(30)])
    engine = PrestoEngine(session=Session(catalog="memory", schema="db"), **kwargs)
    engine.register_connector("memory", connector)
    return engine


class FlakyEngine:
    """Engine stub: the first N submissions are doomed, then it delegates
    to a real engine.  A doomed submission raises the configured error at
    ``submit`` (planning) when ``fail_in="submit"``, else at the handle's
    first ``step`` — on the cluster, mid-run."""

    def __init__(self, failures, error_factory, fail_in="step"):
        self.calls = 0
        self.failures = failures
        self.error_factory = error_factory
        self.fail_in = fail_in
        self.real = make_engine()

    def submit(self, sql):
        self.calls += 1
        doomed = self.calls <= self.failures
        if doomed and self.fail_in == "submit":
            raise self.error_factory()
        handle = self.real.submit(sql)
        if doomed:
            def fail():
                raise self.error_factory()

            handle._machine.step = fail
        return handle


class TestRoutingTable:
    def test_user_mapping_wins(self):
        routing = RoutingTable()
        routing.assign_user("alice", "a")
        routing.assign_group("team", "b")
        routing.set_default("c")
        assert routing.resolve("alice", ("team",)) == "a"

    def test_group_mapping(self):
        routing = RoutingTable()
        routing.assign_group("team", "b")
        routing.set_default("c")
        assert routing.resolve("bob", ("team",)) == "b"

    def test_default(self):
        routing = RoutingTable()
        routing.set_default("c")
        assert routing.resolve("carol") == "c"

    def test_no_route(self):
        with pytest.raises(GatewayError):
            RoutingTable().resolve("nobody")

    def test_reassignment_is_dynamic(self):
        # "Presto administrators could play with MySQL to dynamically
        # redirect any traffic to any cluster."
        routing = RoutingTable()
        routing.assign_user("alice", "a")
        assert routing.resolve("alice") == "a"
        routing.assign_user("alice", "b")
        assert routing.resolve("alice") == "b"

    def test_mapping_stored_in_mysql(self):
        routing = RoutingTable()
        routing.assign_user("alice", "a")
        rows = routing.mysql.execute(
            "presto_gateway", "routing", ["principal", "cluster"]
        )
        assert ("alice", "a") in rows

    def test_remove(self):
        routing = RoutingTable()
        routing.assign_user("alice", "a")
        routing.set_default("shared")
        routing.remove("alice")
        assert routing.resolve("alice") == "shared"


class TestGateway:
    def test_redirect_not_proxy(self):
        gateway = make_gateway()
        redirect = gateway.redirect("alice")
        assert redirect.cluster_name == "dedicated-a"
        assert redirect.status_code == 307

    def test_submit_follows_redirect(self):
        gateway = make_gateway()
        execution = gateway.submit("alice", [10.0])
        gateway.clusters["dedicated-a"].run_until_idle()
        assert execution.finished_at is not None
        assert execution.query_id.startswith("dedicated-a")

    def test_group_routing(self):
        gateway = make_gateway()
        assert gateway.redirect("bob", ("analytics",)).cluster_name == "dedicated-b"

    def test_default_routing(self):
        gateway = make_gateway()
        assert gateway.redirect("random-user").cluster_name == "shared"

    def test_drain_for_maintenance(self):
        # "When we are doing cluster maintenance or software upgrade, we
        # will redirect traffic ... to guarantee no downtime."
        gateway = make_gateway()
        gateway.drain_cluster("dedicated-a", fallback="shared")
        assert gateway.redirect("alice").cluster_name == "shared"
        gateway.undrain_cluster("dedicated-a")
        assert gateway.redirect("alice").cluster_name == "dedicated-a"

    def test_unknown_cluster_route_rejected(self):
        gateway = make_gateway()
        gateway.routing.assign_user("dave", "no-such-cluster")
        with pytest.raises(GatewayError):
            gateway.redirect("dave")

    def test_gateway_is_stateless_per_query(self):
        gateway = make_gateway()
        for _ in range(10):
            gateway.submit("random", [5.0])
        assert gateway.redirects_served == 10


class TestGatewayFailover:
    def test_retryable_failure_fails_over_to_next_cluster(self):
        gateway = make_gateway()
        engine = FlakyEngine(1, lambda: ExecutionError("worker pool collapsed"))
        submission = gateway.submit_sql("alice", engine, "SELECT sum(v) FROM t")
        assert submission.cluster_name == "dedicated-a"
        gateway.run_until_idle()
        assert engine.calls == 2
        assert gateway.failovers == 1
        # Routed to dedicated-a first; the rerun landed on the next
        # registered, undrained cluster.
        assert submission.tried == ["dedicated-a", "dedicated-b"]
        assert submission.execution.query_id.startswith("dedicated-b")
        assert submission.handle.result().rows == [(sum(range(30)),)]

    def test_user_error_fails_fast_without_failover(self):
        gateway = make_gateway()
        engine = FlakyEngine(99, lambda: SemanticError("no such column"), "submit")
        with pytest.raises(SemanticError):
            gateway.submit_sql("alice", engine, "SELECT nope FROM t")
        assert engine.calls == 1
        assert gateway.failovers == 0

    def test_insufficient_resources_fails_fast(self):
        # Re-routing does not shrink an over-large join (section XII.C).
        gateway = make_gateway()
        engine = FlakyEngine(99, lambda: InsufficientResourcesError("query too big"))
        submission = gateway.submit_sql("alice", engine, "SELECT v FROM t")
        gateway.run_until_idle()
        with pytest.raises(InsufficientResourcesError):
            submission.handle.result()
        assert engine.calls == 1
        assert gateway.failovers == 0

    def test_exhausting_all_clusters_surfaces_the_error(self):
        gateway = make_gateway()
        engine = FlakyEngine(99, lambda: ExecutionError("still down"))
        submission = gateway.submit_sql("alice", engine, "SELECT v FROM t")
        gateway.run_until_idle()
        with pytest.raises(ExecutionError):
            submission.handle.result()
        assert engine.calls == 3  # every registered cluster tried once
        assert gateway.failovers == 2
        assert not gateway._submissions

    def test_max_failovers_zero_disables_rerouting(self):
        gateway = make_gateway()
        engine = FlakyEngine(99, lambda: ExecutionError("down"))
        submission = gateway.submit_sql(
            "alice", engine, "SELECT v FROM t", max_failovers=0
        )
        gateway.run_until_idle()
        with pytest.raises(ExecutionError):
            submission.handle.result()
        assert engine.calls == 1

    def test_failed_replan_leaves_the_first_error(self):
        # The rerun's planning fails: nothing took it, so the submission
        # stays failed with the error of the run that actually happened.
        gateway = make_gateway()
        engine = FlakyEngine(1, lambda: ExecutionError("down"))
        submission = gateway.submit_sql("alice", engine, "SELECT v FROM t")
        engine.failures, engine.fail_in = 99, "submit"
        gateway.run_until_idle()
        with pytest.raises(ExecutionError, match="down"):
            submission.handle.result()
        assert submission.tried == ["dedicated-a"]
        assert gateway.failovers == 0

    def test_drained_cluster_excluded_from_failover(self):
        gateway = make_gateway()
        gateway.drain_cluster("dedicated-b", fallback="shared")
        engine = FlakyEngine(1, lambda: ExecutionError("down"))
        submission = gateway.submit_sql("alice", engine, "SELECT v FROM t")
        gateway.run_until_idle()
        assert submission.execution.query_id.startswith("shared")
        assert gateway.failovers == 1

    def test_failover_to_an_already_idle_cluster_is_driven(self):
        # bob routes to "shared", registered last: its failover target is
        # dedicated-a, which a single pass over the clusters already left.
        gateway = make_gateway()
        engine = FlakyEngine(1, lambda: ExecutionError("down"))
        submission = gateway.submit_sql("bob", engine, "SELECT sum(v) FROM t")
        gateway.run_until_idle()
        assert submission.tried == ["shared", "dedicated-a"]
        assert submission.handle.result().rows == [(sum(range(30)),)]

    def test_injected_faults_drive_real_failover(self):
        # End-to-end: retries disabled, so the injected INTERNAL_ERROR on
        # the first engine run fails it on dedicated-a; the gateway reruns
        # the query on another cluster — where it deterministically
        # succeeds (seed 18 fails query-0, passes query-1).
        gateway = make_gateway()
        engine = make_engine(
            fault_injector=FaultInjector(seed=18, task_failure_rate=0.05),
            max_task_retries=0,
        )
        submission = gateway.submit_sql("alice", engine, "SELECT sum(v) FROM t")
        gateway.run_until_idle()
        assert gateway.failovers == 1
        assert submission.execution.query_id.startswith("dedicated-b")
        assert submission.handle.result().rows == [(sum(range(30)),)]
