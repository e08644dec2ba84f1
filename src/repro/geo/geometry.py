"""Geometry model: points, polygons, multi-polygons, bounding boxes.

Section VI.A: points are (longitude, latitude) pairs; polygons are point
collections whose first and last points match.  ``st_contains`` cost is
"proportional to the number of points in the geofence", which holds here:
point-in-polygon is a ray cast over every edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned rectangle; the QuadTree indexes these."""

    min_x: float
    min_y: float
    max_x: float
    max_y: float

    def contains(self, x: float, y: float) -> bool:
        return self.min_x <= x <= self.max_x and self.min_y <= y <= self.max_y

    def intersects(self, other: "BoundingBox") -> bool:
        return not (
            other.min_x > self.max_x
            or other.max_x < self.min_x
            or other.min_y > self.max_y
            or other.max_y < self.min_y
        )

    def union(self, other: "BoundingBox") -> "BoundingBox":
        return BoundingBox(
            min(self.min_x, other.min_x),
            min(self.min_y, other.min_y),
            max(self.max_x, other.max_x),
            max(self.max_y, other.max_y),
        )


class Geometry:
    """Base class for all geometries."""

    def bounding_box(self) -> BoundingBox:
        raise NotImplementedError

    def contains_point(self, point: "Point") -> bool:
        raise NotImplementedError

    def ray_cast(self, point: "Point") -> bool:
        """Exact containment without bounding-box shortcuts."""
        return self.contains_point(point)

    def vertex_count(self) -> int:
        raise NotImplementedError


@dataclass(frozen=True)
class Point(Geometry):
    """A single location: (longitude, latitude)."""

    x: float
    y: float

    def bounding_box(self) -> BoundingBox:
        return BoundingBox(self.x, self.y, self.x, self.y)

    def contains_point(self, point: "Point") -> bool:
        return self.x == point.x and self.y == point.y

    def vertex_count(self) -> int:
        return 1

    def distance(self, other: "Point") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


class Polygon(Geometry):
    """A simple polygon: one exterior ring (first point == last point)."""

    def __init__(self, ring: Sequence[tuple[float, float]]) -> None:
        ring = list(ring)
        if len(ring) < 4:
            raise ValueError("polygon ring needs at least 4 points (closed)")
        if ring[0] != ring[-1]:
            raise ValueError("polygon ring must be closed (first point == last point)")
        self.ring = ring
        import numpy as np

        self._x1 = np.array([p[0] for p in ring[:-1]])
        self._y1 = np.array([p[1] for p in ring[:-1]])
        self._x2 = np.array([p[0] for p in ring[1:]])
        self._y2 = np.array([p[1] for p in ring[1:]])
        self._bbox = BoundingBox(
            float(min(self._x1.min(), self._x2.min())),
            float(min(self._y1.min(), self._y2.min())),
            float(max(self._x1.max(), self._x2.max())),
            float(max(self._y1.max(), self._y2.max())),
        )

    def bounding_box(self) -> BoundingBox:
        return self._bbox

    def vertex_count(self) -> int:
        return len(self.ring) - 1

    def contains_point(self, point: Point) -> bool:
        """Bounding-box shortcut, then an exact ray cast."""
        if not self._bbox.contains(point.x, point.y):
            return False
        return self.ray_cast(point)

    def ray_cast(self, point: Point) -> bool:
        """The exact test, cost proportional to the vertex count.

        This is what the paper's brute force pays for *every* (point,
        geofence) pair: "The time cost of executing st_contains for one
        pair of point and geofence is proportional to the number of points
        in the geofence" (section VI.C).  Boundary points count as inside.
        """
        import numpy as np

        x, y = point.x, point.y
        x1, y1, x2, y2 = self._x1, self._y1, self._x2, self._y2
        # On-edge check: zero cross product and within the segment box.
        cross = (x2 - x1) * (y - y1) - (y2 - y1) * (x - x1)
        on_edge = (
            (np.abs(cross) <= 1e-12)
            & (np.minimum(x1, x2) - 1e-12 <= x)
            & (x <= np.maximum(x1, x2) + 1e-12)
            & (np.minimum(y1, y2) - 1e-12 <= y)
            & (y <= np.maximum(y1, y2) + 1e-12)
        )
        if on_edge.any():
            return True
        straddles = (y1 > y) != (y2 > y)
        with np.errstate(divide="ignore", invalid="ignore"):
            x_cross = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
        crossings = int(np.count_nonzero(straddles & (x < x_cross)))
        return crossings % 2 == 1

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Polygon) and self.ring == other.ring


class MultiPolygon(Geometry):
    """A geofence may be "either a polygon or a multi-polygon" (VI.B)."""

    def __init__(self, polygons: Sequence[Polygon]) -> None:
        if not polygons:
            raise ValueError("multipolygon needs at least one polygon")
        self.polygons = list(polygons)
        bbox = self.polygons[0].bounding_box()
        for polygon in self.polygons[1:]:
            bbox = bbox.union(polygon.bounding_box())
        self._bbox = bbox

    def bounding_box(self) -> BoundingBox:
        return self._bbox

    def vertex_count(self) -> int:
        return sum(p.vertex_count() for p in self.polygons)

    def contains_point(self, point: Point) -> bool:
        if not self._bbox.contains(point.x, point.y):
            return False
        return any(p.contains_point(point) for p in self.polygons)

    def ray_cast(self, point: Point) -> bool:
        return any(p.ray_cast(point) for p in self.polygons)
