"""Trace-driven invariant tests over real engine executions.

Every staged query — plain, retried under fault injection, or failed
over through the gateway — must yield a well-formed span tree whose
critical path sums to the query's simulated milliseconds (its one
account: the sum of its per-kind charges) and whose row/task accounting
reconciles exactly with QueryStats and the metrics registry.
"""

import io

import pytest

from repro.cache.fragment_result_cache import FragmentResultCache
from repro.common.errors import ErrorCategory, PrestoError
from repro.connectors.memory import MemoryConnector
from repro.core.types import BIGINT
from repro.execution.cluster import PrestoClusterSim
from repro.execution.engine import PrestoEngine
from repro.execution.faults import FaultInjector
from repro.execution.operators.scan import SPLIT_RPC_MS
from repro.execution.scheduler import RETRY_BACKOFF_MS
from repro.federation.gateway import PrestoGateway
from repro.planner.analyzer import Session
from repro.workloads.tpch import LINEITEM_COLUMNS, generate_lineitem

from tests.obs.helpers import (
    assert_cache_metrics_reconcile,
    assert_query_observable,
    assert_trace_reconciles,
    assert_well_formed,
    query_span,
    spans_under,
)
from tests.reference.pipeline import execute_direct

TPCH_SQL = (
    "SELECT returnflag, linestatus, sum(quantity), avg(extendedprice), count(*) "
    "FROM lineitem GROUP BY returnflag, linestatus ORDER BY returnflag, linestatus"
)


def make_engine(**kwargs):
    connector = MemoryConnector(split_size=31)
    connector.create_table("db", "lineitem", LINEITEM_COLUMNS, generate_lineitem(250))
    engine = PrestoEngine(session=Session(catalog="memory", schema="db"), **kwargs)
    engine.register_connector("memory", connector)
    return engine


class TestStagedQueryTrace:
    def test_tpch_query_is_observable(self):
        engine = make_engine()
        result = engine.execute(TPCH_SQL)
        assert_query_observable(result, engine.metrics)

    def test_span_tree_mirrors_the_execution_hierarchy(self):
        engine = make_engine()
        result = engine.execute(TPCH_SQL)
        trace = result.trace
        query = query_span(trace)
        assert query.attributes["path"] == "staged"
        stages = [s for s in spans_under(trace, query) if s.name == "stage"]
        assert len(stages) == result.stats.stages_total >= 2
        for stage in stages:
            tasks = [s for s in trace.children(stage) if s.name == "task"]
            assert len(tasks) == stage.attributes["tasks"]
            for task in tasks:
                kinds = {s.name for s in trace.children(task)}
                assert "attempt" in kinds

    def test_split_spans_account_every_scanned_row(self):
        engine = make_engine()
        result = engine.execute(TPCH_SQL)
        splits = result.trace.find("split")
        assert splits
        assert sum(s.attributes["rows"] for s in splits) == result.stats.rows_scanned
        # No fragment cache configured: no split claims a cache status.
        assert all("cache" not in s.attributes for s in splits)

    def test_tracing_off_yields_no_trace_and_same_rows(self):
        traced = make_engine().execute(TPCH_SQL)
        untraced = make_engine(tracing=False).execute(TPCH_SQL)
        assert untraced.trace is None
        assert untraced.rows == traced.rows

    def test_direct_oracle_charges_only_split_rpcs(self):
        # The single pipeline has no coordinator step, stages or tasks:
        # its account holds only the scan's split RPCs, on its trace too.
        engine = make_engine()
        result = execute_direct(engine, TPCH_SQL)
        assert_well_formed(result.trace)
        query = query_span(result.trace)
        assert query.attributes["path"] == "direct"
        charged = {kind: ms for kind, ms in result.stats.charged_ms.items() if ms}
        assert charged == {
            "split_rpc": pytest.approx(SPLIT_RPC_MS * result.stats.splits_scanned)
        }
        assert query.duration_ms == pytest.approx(result.stats.simulated_ms, abs=1e-9)
        operators = [s for s in result.trace.spans if s.name == "operator"]
        scan_rows = sum(
            s.attributes["rows"]
            for s in operators
            if s.attributes["node"] == "TableScanNode"
        )
        assert scan_rows == result.stats.rows_scanned


class TestFaultInjectionTrace:
    def test_retried_query_reconciles(self):
        engine = make_engine(
            fault_injector=FaultInjector(seed=7, task_failure_rate=0.1)
        )
        result = engine.execute(TPCH_SQL)
        assert result.stats.tasks_retried > 0
        assert_query_observable(result, engine.metrics)

    def test_failed_attempts_and_backoffs_appear_as_spans(self):
        engine = make_engine(
            fault_injector=FaultInjector(seed=7, task_failure_rate=0.1),
        )
        result = engine.execute(TPCH_SQL)
        assert_trace_reconciles(result)
        failed = [
            s
            for s in result.trace.find("attempt")
            if s.attributes.get("outcome") == "failed"
        ]
        assert len(failed) == result.stats.tasks_retried
        for span in failed:
            assert "error" in span.attributes
        backoffs = result.trace.find("backoff")
        assert backoffs
        for span in backoffs:
            assert span.duration_ms == pytest.approx(span.attributes["backoff_ms"])
            assert span.attributes["backoff_ms"] in {
                RETRY_BACKOFF_MS * 2**retry for retry in range(3)
            }

    def test_failed_query_stats_match_its_query_span(self):
        # The stage fails in its second task: the first one's finished
        # work is on its lane, charged when the stage fails, and must be
        # in the stats too.
        connector = MemoryConnector(split_size=1000)
        connector.create_table(
            "db", "t", [("a", BIGINT), ("b", BIGINT)], [(i, i % 7) for i in range(200_000)]
        )
        engine = PrestoEngine(
            session=Session(catalog="memory", schema="db"),
            fault_injector=FaultInjector(
                seed=1, task_failure_rate=0.3, task_error_category=ErrorCategory.USER_ERROR
            ),
            max_task_retries=0,
        )
        engine.register_connector("memory", connector)
        handle = engine.submit("SELECT b, count(*) FROM t GROUP BY b")
        with pytest.raises(PrestoError):
            while not handle.done:
                handle.step()
        assert handle.stats.tasks_failed == 1
        assert len(handle.stats.task_records) > 1
        (query,) = handle.trace.find("query")
        assert handle.stats.simulated_ms == pytest.approx(query.duration_ms)
        # Each stage, the failed one included, is charged its longest
        # task (every task has a lane of its own); the engine has no
        # clock, so no coordinator share.
        longest = {}
        for record in handle.stats.task_records:
            longest[record["stage"]] = max(longest.get(record["stage"], 0.0), record["sim_ms"])
        assert handle.stats.charged_ms["coordinator"] == 0.0
        assert handle.stats.simulated_ms == pytest.approx(sum(longest.values()))


class TestGatewayTrace:
    @staticmethod
    def make_gateway():
        gateway = PrestoGateway()
        for name in ("dedicated-a", "dedicated-b", "shared"):
            gateway.register_cluster(PrestoClusterSim(workers=2, name=name))
        gateway.routing.assign_user("alice", "dedicated-a")
        gateway.routing.set_default("shared")
        return gateway

    @staticmethod
    def make_tiny_engine(**kwargs):
        connector = MemoryConnector(split_size=10)
        connector.create_table("db", "t", [("v", BIGINT)], [(i,) for i in range(30)])
        engine = PrestoEngine(session=Session(catalog="memory", schema="db"), **kwargs)
        engine.register_connector("memory", connector)
        return engine

    def test_single_submission_rooted_at_gateway(self):
        gateway = self.make_gateway()
        engine = self.make_tiny_engine()
        submission = gateway.submit_sql("alice", engine, "SELECT sum(v) FROM t")
        gateway.run_until_idle()
        result = submission.handle.result()
        trace = result.trace
        assert trace.root.name == "gateway.submit"
        assert [s.attributes["cluster"] for s in trace.find("gateway.route")] == [
            "dedicated-a"
        ]
        assert len(trace.find("cluster.admission")) == 1
        assert_query_observable(result, engine.metrics)

    def test_failed_over_query_keeps_both_attempts_in_one_tree(self):
        # Same deterministic failover as the gateway suite: with retries
        # disabled, seed 18 dooms the run on dedicated-a and passes the
        # rerun on dedicated-b.
        gateway = self.make_gateway()
        engine = self.make_tiny_engine(
            fault_injector=FaultInjector(seed=18, task_failure_rate=0.05),
            max_task_retries=0,
        )
        submission = gateway.submit_sql("alice", engine, "SELECT sum(v) FROM t")
        gateway.run_until_idle()
        assert gateway.failovers == 1
        assert submission.execution.query_id.startswith("dedicated-b")
        result = submission.handle.result()
        trace = result.trace
        assert trace.root.name == "gateway.submit"
        assert all(s.end_ms is not None for s in trace.spans)
        assert [s.attributes["cluster"] for s in trace.find("gateway.route")] == [
            "dedicated-a",
            "dedicated-b",
        ]
        # Both the doomed run and the rerun left complete query subtrees;
        # the stats describe the last one, and it still reconciles.
        assert len(trace.find("query")) == 2
        assert_query_observable(result, engine.metrics)


class TestCacheAndStorageObservability:
    def test_fragment_cache_metrics_reconcile_with_cache_stats(self):
        cache = FragmentResultCache()
        engine = make_engine(fragment_result_cache=cache)
        first = engine.execute(TPCH_SQL)
        second = engine.execute(TPCH_SQL)
        assert cache.stats.hits > 0
        assert_cache_metrics_reconcile(engine.metrics, "fragment_result", cache.stats)
        # The rerun's splits were all served from cache, and its split
        # spans say so.
        assert {
            s.attributes["cache"] for s in second.trace.find("split")
        } == {"hit"}
        assert {
            s.attributes["cache"] for s in first.trace.find("split")
        } == {"miss"}

    def test_hdfs_backed_query_emits_storage_spans(self):
        from repro.connectors.hive import HiveConnector
        from repro.metastore.metastore import HiveMetastore
        from repro.storage.hdfs import HdfsFileSystem
        from repro.workloads.trips import load_trips_table

        metastore = HiveMetastore()
        fs = HdfsFileSystem()
        load_trips_table(
            metastore,
            fs,
            ["2017-03-01"],
            rows_per_date=60,
            row_group_size=30,
            num_cities=5,
            table="trips",
        )
        engine = PrestoEngine(session=Session(catalog="hive", schema="rawdata"))
        engine.register_connector("hive", HiveConnector(metastore, fs))
        result = engine.execute("SELECT count(*) FROM trips")
        assert result.rows == [(60,)]
        assert_trace_reconciles(result)
        storage = result.trace.find("storage")
        assert storage
        assert {s.attributes["system"] for s in storage} == {"hdfs"}
        assert {s.attributes["operation"] for s in storage} >= {"open"}


class TestRenderingAndCli:
    def test_explain_analyze_renders_critical_path(self):
        engine = make_engine()
        result = engine.execute(f"EXPLAIN ANALYZE {TPCH_SQL}")
        text = "\n".join(row[0] for row in result.rows)
        assert "Critical path:" in text
        # The rendered critical-path total is the simulated total from the
        # header line: both derive from the same trace.
        header = next(line for line in text.splitlines() if "simulated ms" in line)
        critical = next(
            line for line in text.splitlines() if line.startswith("Critical path:")
        )
        assert header.split("simulated ms")[0].split(",")[-1].strip() == (
            critical.split(":")[1].split("simulated")[0].strip()
        )

    def test_cli_trace_and_metrics_flags_dump_json(self):
        from repro.cli import main

        out = io.StringIO()
        engine = TestGatewayTrace.make_tiny_engine()
        code = main(
            ["-e", "SELECT count(*) FROM t", "--trace", "--metrics"],
            engine=engine,
            stdout=out,
        )
        assert code == 0
        text = out.getvalue()
        assert '"spans"' in text
        assert '"counters"' in text
        assert "engine_queries_total" in text
