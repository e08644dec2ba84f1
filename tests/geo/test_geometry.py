"""Geometry and WKT tests (section VI.A)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo.geometry import BoundingBox, MultiPolygon, Point, Polygon
from repro.geo.wkt import format_wkt, parse_wkt

SQUARE = Polygon([(0, 0), (4, 0), (4, 4), (0, 4), (0, 0)])


class TestPoint:
    def test_distance(self):
        assert Point(0, 0).distance(Point(3, 4)) == 5.0

    def test_bounding_box_degenerate(self):
        box = Point(2, 3).bounding_box()
        assert (box.min_x, box.min_y, box.max_x, box.max_y) == (2, 3, 2, 3)

    def test_a_point_contains_only_itself(self):
        assert Point(2, 3).contains_point(Point(2, 3))
        assert not Point(2, 3).contains_point(Point(2, 4))
        assert Point(2, 3).vertex_count() == 1


class TestBoundingBox:
    def test_contains(self):
        box = BoundingBox(0, 0, 2, 2)
        assert box.contains(1, 1)
        assert box.contains(0, 0)  # boundary inclusive
        assert not box.contains(3, 1)

    def test_intersects(self):
        a = BoundingBox(0, 0, 2, 2)
        assert a.intersects(BoundingBox(1, 1, 3, 3))
        assert a.intersects(BoundingBox(2, 2, 3, 3))  # touching counts
        assert not a.intersects(BoundingBox(2.1, 2.1, 3, 3))

    def test_union(self):
        u = BoundingBox(0, 0, 1, 1).union(BoundingBox(2, -1, 3, 0.5))
        assert (u.min_x, u.min_y, u.max_x, u.max_y) == (0, -1, 3, 1)


class TestPolygon:
    def test_interior_point(self):
        assert SQUARE.contains_point(Point(2, 2))

    def test_exterior_point(self):
        assert not SQUARE.contains_point(Point(5, 2))
        assert not SQUARE.contains_point(Point(-1, -1))

    def test_boundary_point_counts_inside(self):
        assert SQUARE.contains_point(Point(0, 2))
        assert SQUARE.contains_point(Point(4, 4))

    def test_vertex_count(self):
        assert SQUARE.vertex_count() == 4

    def test_concave_polygon(self):
        # A "C" shape: point inside the notch is outside the polygon.
        c_shape = Polygon(
            [(0, 0), (4, 0), (4, 1), (1, 1), (1, 3), (4, 3), (4, 4), (0, 4), (0, 0)]
        )
        assert c_shape.contains_point(Point(0.5, 2))
        assert not c_shape.contains_point(Point(2.5, 2))  # in the notch

    def test_unclosed_ring_rejected(self):
        with pytest.raises(ValueError):
            Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            Polygon([(0, 0), (1, 1), (0, 0)])

    def test_ray_cast_matches_contains_inside_bbox(self):
        for point in [Point(2, 2), Point(5, 2), Point(0.1, 3.9)]:
            if SQUARE.bounding_box().contains(point.x, point.y):
                assert SQUARE.ray_cast(point) == SQUARE.contains_point(point)


class TestMultiPolygon:
    def test_contains_in_any_member(self):
        other = Polygon([(10, 10), (12, 10), (12, 12), (10, 12), (10, 10)])
        multi = MultiPolygon([SQUARE, other])
        assert multi.contains_point(Point(2, 2))
        assert multi.contains_point(Point(11, 11))
        assert not multi.contains_point(Point(7, 7))

    def test_vertex_count_sums(self):
        other = Polygon([(10, 10), (12, 10), (12, 12), (10, 12), (10, 10)])
        assert MultiPolygon([SQUARE, other]).vertex_count() == 8

    def test_ray_cast_in_any_member(self):
        other = Polygon([(10, 10), (12, 10), (12, 12), (10, 12), (10, 10)])
        multi = MultiPolygon([SQUARE, other])
        assert multi.ray_cast(Point(11, 11)) and not multi.ray_cast(Point(7, 7))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            MultiPolygon([])


class TestWkt:
    def test_paper_point_example(self):
        geometry = parse_wkt("POINT (77.3548351 28.6973627)")
        assert geometry == Point(77.3548351, 28.6973627)

    def test_paper_polygon_example(self):
        wkt = (
            "POLYGON ((36.814155579 -1.3174386070000002, "
            "36.814863682 -1.317545867, "
            "36.814863682 -1.318221605, "
            "36.813973188 -1.317910551, "
            "36.814155579 -1.3174386070000002))"
        )
        polygon = parse_wkt(wkt)
        assert polygon.vertex_count() == 4

    def test_multipolygon(self):
        geometry = parse_wkt(
            "MULTIPOLYGON (((0 0, 1 0, 1 1, 0 0)), ((5 5, 6 5, 6 6, 5 5)))"
        )
        assert isinstance(geometry, MultiPolygon)
        assert len(geometry.polygons) == 2

    def test_format_round_trip(self):
        for geometry in [Point(1.5, -2.25), SQUARE]:
            assert parse_wkt(format_wkt(geometry)) == geometry

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            parse_wkt("LINESTRING (0 0, 1 1)")
        with pytest.raises(ValueError):
            parse_wkt("POINT (1)")
        with pytest.raises(ValueError):
            parse_wkt("POINT (1 2) extra")

    def test_interior_rings_rejected(self):
        with pytest.raises(ValueError):
            parse_wkt("POLYGON ((0 0, 4 0, 4 4, 0 0), (1 1, 2 1, 2 2, 1 1))")


# -- property tests -----------------------------------------------------------

coords = st.floats(min_value=-180, max_value=180, allow_nan=False).map(
    lambda v: round(v, 6)
)


@given(coords, coords)
@settings(max_examples=100, deadline=None)
def test_point_wkt_round_trip_property(x, y):
    assert parse_wkt(format_wkt(Point(x, y))) == Point(x, y)


@st.composite
def regular_polygons(draw):
    cx = draw(st.floats(-50, 50, allow_nan=False))
    cy = draw(st.floats(-50, 50, allow_nan=False))
    radius = draw(st.floats(0.5, 10, allow_nan=False))
    vertices = draw(st.integers(3, 40))
    ring = [
        (
            round(cx + radius * math.cos(2 * math.pi * i / vertices), 9),
            round(cy + radius * math.sin(2 * math.pi * i / vertices), 9),
        )
        for i in range(vertices)
    ]
    ring.append(ring[0])
    return Polygon(ring), (cx, cy), radius


@given(regular_polygons())
@settings(max_examples=100, deadline=None)
def test_regular_polygon_contains_center(polygon_center_radius):
    polygon, (cx, cy), _ = polygon_center_radius
    assert polygon.contains_point(Point(cx, cy))


@given(regular_polygons(), st.floats(1.5, 4, allow_nan=False), st.floats(0, 2 * math.pi))
@settings(max_examples=100, deadline=None)
def test_regular_polygon_excludes_far_points(polygon_center_radius, factor, angle):
    polygon, (cx, cy), radius = polygon_center_radius
    outside = Point(cx + factor * radius * math.cos(angle), cy + factor * radius * math.sin(angle))
    assert not polygon.contains_point(outside)


@given(regular_polygons())
@settings(max_examples=60, deadline=None)
def test_polygon_wkt_round_trip_property(polygon_center_radius):
    polygon, _, _ = polygon_center_radius
    assert parse_wkt(format_wkt(polygon)) == polygon
