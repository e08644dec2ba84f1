"""Fragmenter tests: plans divide into the stages of section III."""

import pytest

from repro.connectors.memory import MemoryConnector
from repro.core.types import BIGINT, DOUBLE, VARCHAR
from repro.execution.engine import PrestoEngine
from repro.planner.analyzer import Session
from repro.planner.fragmenter import ExchangeKind, Fragmenter
from repro.planner.plan import TopNNode


@pytest.fixture
def engine():
    connector = MemoryConnector()
    connector.create_table(
        "db", "facts", [("k", BIGINT), ("v", DOUBLE)], [(1, 1.0), (2, 2.0)]
    )
    connector.create_table(
        "db", "dim", [("k", BIGINT), ("name", VARCHAR)], [(1, "a"), (2, "b")]
    )
    engine = PrestoEngine(session=Session(catalog="memory", schema="db"))
    engine.register_connector("memory", connector)
    return engine


def fragment(engine, sql):
    return Fragmenter().fragment(engine.plan(sql))


class TestFragmentation:
    def test_simple_scan_has_two_stages(self, engine):
        # Source stage + coordinator output stage.
        plan = fragment(engine, "SELECT v FROM facts WHERE v > 1")
        assert plan.stage_count() == 2
        assert plan.fragments[0].distribution == "source"
        assert plan.root_fragment.distribution == "single"
        assert plan.fragments[-1].inputs[0].kind == ExchangeKind.GATHER

    def test_group_by_splits_partial_and_final(self, engine):
        plan = fragment(engine, "SELECT k, sum(v) FROM facts GROUP BY k")
        # source (partial agg) → hash (final agg) → single (output)
        assert plan.stage_count() == 3
        repartitions = [
            e
            for f in plan.fragments
            for e in f.inputs
            if e.kind == ExchangeKind.REPARTITION
        ]
        assert len(repartitions) == 1
        assert len(repartitions[0].partition_keys) == 1

    def test_global_aggregation_gathers(self, engine):
        plan = fragment(engine, "SELECT count(*) FROM facts")
        kinds = [e.kind for f in plan.fragments for e in f.inputs]
        assert ExchangeKind.GATHER in kinds
        assert ExchangeKind.REPARTITION not in kinds

    def test_partitioned_join_repartitions_build_side(self, engine):
        plan = fragment(
            engine, "SELECT count(*) FROM facts f JOIN dim d ON f.k = d.k"
        )
        kinds = [e.kind for f in plan.fragments for e in f.inputs]
        assert ExchangeKind.REPARTITION in kinds

    def test_broadcast_join_replicates_build_side(self, engine):
        engine.session.properties["join_distribution_type"] = "broadcast"
        plan = fragment(
            engine, "SELECT count(*) FROM facts f JOIN dim d ON f.k = d.k"
        )
        kinds = [e.kind for f in plan.fragments for e in f.inputs]
        assert ExchangeKind.REPLICATE in kinds
        assert ExchangeKind.REPARTITION not in kinds
        engine.session.properties.clear()

    def test_order_by_gathers_before_sort(self, engine):
        plan = fragment(engine, "SELECT v FROM facts ORDER BY v")
        gathers = [
            e for f in plan.fragments for e in f.inputs if e.kind == ExchangeKind.GATHER
        ]
        assert gathers  # the sort runs single-node after a gather

    def test_topn_runs_per_task_below_the_gather_and_once_above(self, engine):
        plan = fragment(engine, "SELECT k, v FROM facts ORDER BY v DESC LIMIT 5")
        assert plan.stage_count() == 2
        below, above = (
            next(n for n in f.root.walk() if isinstance(n, TopNNode))
            for f in plan.fragments
        )
        assert (below.partial, above.partial) == (True, False)
        assert below.count == above.count == 5
        assert below.order_by == above.order_by
        assert plan.fragments[0].distribution == "source"
        assert "TopN[5, partial, " in plan.fragments[0].root.pretty()
        assert "TopN[5, v" in plan.root_fragment.root.pretty()
        assert plan.root_fragment.inputs[0].kind == ExchangeKind.GATHER

    def test_topn_above_an_aggregation_lands_in_the_hash_fragment(self, engine):
        plan = fragment(
            engine, "SELECT k, count(*) FROM facts GROUP BY k ORDER BY 2 DESC LIMIT 3"
        )
        assert [f.distribution for f in plan.fragments] == ["source", "hash", "single"]
        partial = [
            [n.partial for n in f.root.walk() if isinstance(n, TopNNode)]
            for f in plan.fragments
        ]
        assert partial == [[], [True], [False]]

    def test_sort_without_limit_and_single_node_topn_are_unchanged(self, engine):
        plan = fragment(engine, "SELECT k FROM facts ORDER BY k")
        assert not any(
            isinstance(n, TopNNode) for f in plan.fragments for n in f.root.walk()
        )
        # Above a global aggregation the child is already on one node.
        plan = fragment(engine, "SELECT count(*) AS c FROM facts ORDER BY c LIMIT 1")
        topns = [n for f in plan.fragments for n in f.root.walk() if isinstance(n, TopNNode)]
        assert [n.partial for n in topns] == [False]

    def test_describe_renders_all_fragments(self, engine):
        text = engine.explain_distributed(
            "SELECT k, sum(v) FROM facts GROUP BY k ORDER BY 2 DESC LIMIT 3"
        )
        assert "Fragment 0" in text
        assert "RemoteSource" in text
        assert "Output" in text

    def test_fragment_ids_unique_and_root_last(self, engine):
        plan = fragment(engine, "SELECT k, count(*) FROM facts GROUP BY k")
        ids = [f.fragment_id for f in plan.fragments]
        assert ids == sorted(set(ids))
        assert plan.root_fragment.fragment_id == max(ids)

    def test_union_all_fragments_each_branch(self, engine):
        # Regression: UnionNode used to fall through to the generic case
        # and crash the fragmenter.  Each branch becomes its own fragment,
        # gathered in order.
        plan = fragment(engine, "SELECT k FROM facts UNION ALL SELECT k FROM dim")
        assert plan.stage_count() == 3  # two branches + output
        union_inputs = plan.root_fragment.inputs
        assert [e.kind for e in union_inputs] == [
            ExchangeKind.GATHER,
            ExchangeKind.GATHER,
        ]
        assert len({e.source_fragment for e in union_inputs}) == 2

    def test_union_all_distributed_explain(self, engine):
        text = engine.execute(
            "EXPLAIN (TYPE DISTRIBUTED) SELECT k FROM facts UNION ALL SELECT k FROM dim"
        ).rows
        rendered = "\n".join(r[0] for r in text)
        assert "Union" in rendered
        assert rendered.count("RemoteSource[GATHER") >= 2

    def test_union_of_aggregations_fragments(self, engine):
        plan = fragment(
            engine,
            "SELECT count(*) FROM facts UNION ALL SELECT count(*) FROM dim",
        )
        assert plan.stage_count() >= 3

    def test_exchanges_mark_partitioned_consumers(self, engine):
        plan = fragment(engine, "SELECT k, sum(v) FROM facts GROUP BY k")
        repartition = [
            e
            for f in plan.fragments
            for e in f.inputs
            if e.kind == ExchangeKind.REPARTITION
        ][0]
        assert repartition.partitioned
        # Join build-side repartitions are read whole by every probe task.
        join_plan = fragment(
            engine, "SELECT count(*) FROM facts f JOIN dim d ON f.k = d.k"
        )
        build = [
            e
            for f in join_plan.fragments
            for e in f.inputs
            if e.kind == ExchangeKind.REPARTITION
        ][0]
        assert not build.partitioned
