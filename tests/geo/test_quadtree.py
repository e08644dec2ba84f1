"""QuadTree and GeoIndex tests (section VI.D)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo.geometry import BoundingBox, Point, Polygon
from repro.geo.quadtree import GeoIndex, QuadTree


def square(x, y, size=1.0):
    return Polygon([(x, y), (x + size, y), (x + size, y + size), (x, y + size), (x, y)])


class TestQuadTree:
    def test_point_query_finds_containing_boxes(self):
        tree = QuadTree(BoundingBox(0, 0, 16, 16))
        tree.insert(1, BoundingBox(0, 0, 4, 4))
        tree.insert(2, BoundingBox(8, 8, 12, 12))
        tree.insert(3, BoundingBox(2, 2, 10, 10))
        assert sorted(tree.query_point(3, 3)) == [1, 3]
        assert sorted(tree.query_point(9, 9)) == [2, 3]
        assert tree.query_point(15, 1) == []

    def test_splits_past_capacity(self):
        tree = QuadTree(BoundingBox(0, 0, 16, 16), capacity=4)
        for i in range(40):
            x = (i % 8) * 2
            y = (i // 8) * 2
            tree.insert(i, BoundingBox(x, y, x + 0.5, y + 0.5))
        assert tree.depth() > 0
        assert len(tree) == 40

    def test_box_query(self):
        tree = QuadTree(BoundingBox(0, 0, 16, 16))
        tree.insert(1, BoundingBox(0, 0, 4, 4))
        tree.insert(2, BoundingBox(10, 10, 12, 12))
        assert tree.query_box(BoundingBox(3, 3, 11, 11)) == [1, 2]
        assert tree.query_box(BoundingBox(5, 5, 6, 6)) == []

    def test_straddling_boxes_stay_at_parent(self):
        # A box crossing the midline cannot descend into a child quadrant.
        tree = QuadTree(BoundingBox(0, 0, 16, 16), capacity=1)
        tree.insert(1, BoundingBox(7, 7, 9, 9))  # straddles the center
        tree.insert(2, BoundingBox(1, 1, 2, 2))
        tree.insert(3, BoundingBox(14, 14, 15, 15))
        assert 1 in tree.query_point(8, 8)

    def test_paper_figure11_grid(self):
        # Figure 11 indexes a 4x4 square space.
        tree = QuadTree(BoundingBox(0, 0, 4, 4), capacity=2)
        for i in range(4):
            for j in range(4):
                tree.insert(i * 4 + j, BoundingBox(j, i, j + 1, i + 1))
        hits = tree.query_point(2.5, 1.5)
        assert 4 * 1 + 2 in hits  # cell at row 1, column 2


class TestGeoIndex:
    def test_candidates_superset_of_containing(self):
        cities = [(i, square(i * 3, 0)) for i in range(10)]
        index = GeoIndex.build(cities)
        point = Point(4.5, 0.5)  # inside city 1's square (x in [3,4])? no: [3,4] -> 4.5 outside
        candidates = set(index.candidates(point))
        containing = set(index.containing(point))
        assert containing <= candidates

    def test_containing_exact(self):
        cities = [(i, square(i * 3, 0)) for i in range(5)]
        index = GeoIndex.build(cities)
        assert index.containing(Point(3.5, 0.5)) == [1]
        assert index.containing(Point(2.0, 0.5)) == []  # gap between squares

    def test_none_geometries_skipped(self):
        index = GeoIndex.build([(0, square(0, 0)), (1, None)])
        assert len(index) == 1

    def test_empty_index(self):
        index = GeoIndex.build([])
        assert index.candidates(Point(0, 0)) == []

    def test_geometry_accessor(self):
        s = square(0, 0)
        index = GeoIndex.build([(7, s)])
        assert index.geometry(7) is s


# -- property tests: the index agrees with brute force -------------------------

boxes = st.tuples(
    st.floats(0, 90, allow_nan=False),
    st.floats(0, 90, allow_nan=False),
    st.floats(0.1, 10, allow_nan=False),
    st.floats(0.1, 10, allow_nan=False),
).map(lambda t: BoundingBox(t[0], t[1], t[0] + t[2], t[1] + t[3]))


@given(st.lists(boxes, min_size=1, max_size=60), st.floats(0, 100), st.floats(0, 100))
@settings(max_examples=150, deadline=None)
def test_quadtree_matches_brute_force_property(box_list, x, y):
    bounds = box_list[0]
    for box in box_list[1:]:
        bounds = bounds.union(box)
    tree = QuadTree(bounds, capacity=4, max_depth=8)
    for i, box in enumerate(box_list):
        tree.insert(i, box)
    expected = sorted(i for i, box in enumerate(box_list) if box.contains(x, y))
    assert sorted(tree.query_point(x, y)) == expected


@given(st.lists(boxes, min_size=1, max_size=40), boxes)
@settings(max_examples=100, deadline=None)
def test_quadtree_box_query_matches_brute_force(box_list, probe):
    bounds = box_list[0]
    for box in box_list[1:]:
        bounds = bounds.union(box)
    tree = QuadTree(bounds, capacity=4, max_depth=8)
    for i, box in enumerate(box_list):
        tree.insert(i, box)
    expected = sorted(i for i, box in enumerate(box_list) if box.intersects(probe))
    assert sorted(tree.query_box(probe)) == expected


class TestGeoSqlFunctions:
    """The plugin's SQL surface: st_contains, st_within, build_geo_index
    and geo_contains, evaluated row by row outside a spatial join."""

    def make_engine(self):
        from repro import MemoryConnector, PrestoEngine, Session
        from repro.core.types import DOUBLE, VARCHAR

        connector = MemoryConnector()
        connector.create_table(
            "geo",
            "fences",
            [("name", VARCHAR), ("wkt", VARCHAR)],
            [
                ("west", "POLYGON ((0 0, 2 0, 2 2, 0 2, 0 0))"),
                ("east", "MULTIPOLYGON (((5 5, 7 5, 7 7, 5 7, 5 5)), ((8 8, 9 8, 9 9, 8 9, 8 8)))"),
            ],
        )
        connector.create_table(
            "geo", "points", [("lng", DOUBLE), ("lat", DOUBLE)], [(1.0, 1.0), (8.5, 8.5), (3.0, 3.0)]
        )
        engine = PrestoEngine(session=Session(catalog="memory", schema="geo"))
        engine.register_connector("memory", connector)
        return engine

    def test_st_contains_and_st_within_per_row(self):
        rows = self.make_engine().execute(
            "SELECT name, st_contains(st_geometry_from_text(wkt), st_point(1.0, 1.0)), "
            "st_within(st_point(8.5, 8.5), st_geometry_from_text(wkt)) "
            "FROM fences ORDER BY name"
        ).rows
        assert rows == [("east", False, True), ("west", True, False)]

    def test_geo_contains_probes_a_built_index(self):
        rows = self.make_engine().execute(
            "SELECT p.lng, geo_contains(i.idx, st_point(p.lng, p.lat)) "
            "FROM points p CROSS JOIN "
            "(SELECT build_geo_index(st_geometry_from_text(wkt)) AS idx FROM fences) i "
            "ORDER BY p.lng"
        ).rows
        assert rows == [(1.0, True), (3.0, False), (8.5, True)]
