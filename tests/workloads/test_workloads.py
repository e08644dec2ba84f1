"""Tests for workload generators."""

import pytest

from repro.core.types import RowType
from repro.geo.geometry import Point
from repro.workloads.druid_queries import build_druid_workload
from repro.workloads.geofences import generate_cities, generate_trip_points
from repro.workloads.tpch import (
    LINEITEM_COLUMNS,
    generate_lineitem,
    writer_benchmark_datasets,
)
from repro.workloads.trips import TRIPS_BASE_TYPE, generate_trips_rows


class TestLineitem:
    def test_deterministic(self):
        assert generate_lineitem(50, seed=1) == generate_lineitem(50, seed=1)
        assert generate_lineitem(50, seed=1) != generate_lineitem(50, seed=2)

    def test_shape(self):
        rows = generate_lineitem(10)
        assert len(rows) == 10
        assert all(len(r) == len(LINEITEM_COLUMNS) for r in rows)

    def test_value_domains(self):
        rows = generate_lineitem(200)
        flags = {r[8] for r in rows}
        assert flags <= {"R", "A", "N"}
        assert all(1 <= r[4] <= 50 for r in rows)  # quantity

    def test_writer_datasets_cover_figure(self):
        datasets = writer_benchmark_datasets(rows=20)
        names = [name for name, _, _ in datasets]
        assert names == [
            "All Lineitem columns",
            "Bigint Sequential",
            "Bigint Random",
            "Small Varchar",
            "Large Varchar",
            "Varchar Dictionary",
            "Map Varchar To Double",
            "Large Map Varchar To Double",
            "Map Int To Double",
            "Large Map Int To Double",
            "Array Varchar",
        ]
        for name, schema, page in datasets:
            assert page.position_count == 20

    def test_varchar_dictionary_low_cardinality(self):
        datasets = dict(
            (name, page) for name, _, page in writer_benchmark_datasets(rows=500)
        )
        distinct = set(datasets["Varchar Dictionary"].block(0).to_list())
        assert len(distinct) <= 16


class TestTrips:
    def test_struct_width_and_depth(self):
        # "20 or sometimes up to 50 fields", "more than 5 levels of nesting"
        assert len(TRIPS_BASE_TYPE.fields) == 20
        depth = max(path.count(".") for path, _ in TRIPS_BASE_TYPE.walk()) + 1
        assert depth >= 4  # base itself adds another level: ≥5 total

    def test_rows_match_type(self):
        rows = generate_trips_rows(20)
        for base, fare, completed in rows:
            assert set(base) == {f.name for f in TRIPS_BASE_TYPE.fields}
            assert base["fare"]["breakdown"]["base_amount"] is not None
            assert base["pickup"]["address"]["gps"]["provider"] in ("fused", "gps")

    def test_deterministic(self):
        assert generate_trips_rows(10, seed=3) == generate_trips_rows(10, seed=3)

    def test_status_mostly_completed(self):
        rows = generate_trips_rows(500)
        completed = sum(1 for _, _, done in rows if done)
        assert completed > 350


class TestGeofences:
    def test_city_vertex_count(self):
        cities = generate_cities(5, vertices_per_city=300)
        assert all(polygon.vertex_count() == 300 for _, polygon in cities)

    def test_cities_disjoint(self):
        cities = generate_cities(9, city_radius=0.5, grid_spacing=3.0)
        # Sample centers of each city; no other city contains them.
        for cid, polygon in cities:
            box = polygon.bounding_box()
            center = Point((box.min_x + box.max_x) / 2, (box.min_y + box.max_y) / 2)
            containing = [c for c, p in cities if p.contains_point(center)]
            assert containing in ([], [cid])

    def test_trip_points_fraction_inside(self):
        cities = generate_cities(10)
        points = generate_trip_points(300, cities, in_city_fraction=0.7)
        inside = sum(
            1 for p in points if any(poly.contains_point(p) for _, poly in cities)
        )
        assert 0.5 < inside / len(points) <= 1.0

    def test_deterministic(self):
        a = generate_cities(3, seed=9)
        b = generate_cities(3, seed=9)
        assert [p.ring for _, p in a] == [p.ring for _, p in b]


class TestDruidWorkload:
    def test_paper_mix(self):
        workload = build_druid_workload(segments=2, rows_per_segment=100)
        assert len(workload.queries) == 20
        assert sum(q.has_predicate for q in workload.queries) == 14
        assert sum(q.has_limit for q in workload.queries) == 5
        assert sum(q.is_aggregation for q in workload.queries) == 12

    def test_sql_and_native_agree(self):
        from repro.connectors.olap.druid import DruidConnector
        from repro.execution.engine import PrestoEngine
        from repro.planner.analyzer import Session

        workload = build_druid_workload(segments=2, rows_per_segment=200)
        engine = PrestoEngine(session=Session(catalog="druid", schema="druid"))
        engine.register_connector("druid", DruidConnector(workload.cluster))
        for query in workload.queries:
            native_rows = workload.cluster.query(query.native)
            presto_rows = engine.execute(query.sql).rows
            if query.has_limit:
                assert len(presto_rows) == len(native_rows)
            else:
                assert sorted(map(repr, presto_rows)) == sorted(map(repr, native_rows))
