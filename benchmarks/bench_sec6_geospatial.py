"""Section VI: geospatial queries — QuadTree vs brute force.

Paper setup: the trips-per-city join (``st_contains(c.geo_shape,
st_point(t.dest_lng, t.dest_lat))``) over geofences with hundreds of
vertices.  Paper result: "our Presto Geospatial Plugin is more than 50X
faster" than brute force, and "more than 90% [of geospatial traffic] is
completed within five minutes".

Both strategies run the same SQL; a session property flips the plan
between the QuadTree SpatialJoin (figure 13 rewrite) and the brute-force
pairwise ``st_contains``.
"""

from __future__ import annotations

from _harness import LANE_RATIO, WORK_COUNT, gate, lane_ratio, run_script
from repro.connectors.memory import MemoryConnector
from repro.core.types import BIGINT, DOUBLE, GEOMETRY, VARCHAR
from repro.execution.engine import PrestoEngine
from repro.geo.quadtree import GeoIndex
from repro.planner.analyzer import Session
from repro.planner.plan import SpatialJoinNode
from repro.workloads.geofences import generate_cities, generate_trip_points

OUTPUT = "BENCH_sec6_geospatial.json"

SQL = (
    "SELECT c.city_id, count(*) AS trips FROM trips_table t "
    "JOIN city_table c ON st_contains(c.geo_shape, st_point(t.dest_lng, t.dest_lat)) "
    "WHERE t.datestr = '2017-08-01' "
    "GROUP BY c.city_id"
)


def make_connector(cities, points) -> MemoryConnector:
    connector = MemoryConnector()
    connector.create_table(
        "geo",
        "city_table",
        [("city_id", BIGINT), ("geo_shape", GEOMETRY)],
        [(cid, polygon) for cid, polygon in cities],
    )
    connector.create_table(
        "geo",
        "trips_table",
        [("dest_lng", DOUBLE), ("dest_lat", DOUBLE), ("datestr", VARCHAR)],
        [(p.x, p.y, "2017-08-01") for p in points],
    )
    return connector


def make_engine(connector, use_index: bool):
    session = Session(
        catalog="memory", schema="geo", properties={"geo_index_enabled": use_index}
    )
    engine = PrestoEngine(session=session)
    engine.register_connector("memory", connector)
    return engine


def run(smoke: bool) -> dict:
    num_cities, vertices, num_trips = (30, 100, 400) if smoke else (150, 400, 4_000)
    cities = generate_cities(num_cities, vertices_per_city=vertices)
    points = generate_trip_points(num_trips, cities, in_city_fraction=0.6)
    connector = make_connector(cities, points)
    indexed_engine = make_engine(connector, use_index=True)
    brute_engine = make_engine(connector, use_index=False)
    timed = lane_ratio(
        lambda: brute_engine.execute(SQL), lambda: indexed_engine.execute(SQL), repeat=1
    )

    # Figure 13: the optimizer rewrites st_contains joins to SpatialJoin.
    spatial = [n for n in indexed_engine.plan(SQL).walk() if isinstance(n, SpatialJoinNode)]

    # "The majority of bounded rectangles that do not contain target point
    # could be filtered out."
    probes = generate_trip_points(500, cities, in_city_fraction=0.6)
    index = GeoIndex.build(cities)
    candidates = sum(len(index.candidates(p)) for p in probes)
    return {
        "benchmark": "sec6_geospatial",
        "smoke": smoke,
        "trips": num_trips,
        "geofences": num_cities,
        "vertices_per_geofence": vertices,
        "groups": len(timed.fast_result.rows),
        "brute_force_ms": round(timed.slow_ms, 3),
        "quadtree_ms": round(timed.fast_ms, 3),
        "speedup": round(timed.ratio, 2),
        "identical": sorted(timed.slow_result.rows) == sorted(timed.fast_result.rows),
        "spatial_join_nodes_using_index": sum(n.use_index for n in spatial),
        "candidate_fraction": round(candidates / (len(probes) * num_cities), 5),
    }


def gates(report: dict) -> list:
    found = [
        gate("the two strategies return the same rows", WORK_COUNT, report["identical"], "==", True),
        gate("st_contains join rewritten to one SpatialJoin that uses the index",
             WORK_COUNT, report["spatial_join_nodes_using_index"], "==", 1),
        # >95% of pairs never reach st_contains.
        gate("share of (point, geofence) pairs the QuadTree leaves as candidates",
             WORK_COUNT, report["candidate_fraction"], "<", 0.05),
    ]
    if not report["smoke"]:
        # Paper: >50x vs a MapReduce baseline.
        found.append(gate("brute force / QuadTree", LANE_RATIO, report["speedup"], ">", 10.0))
    return found


if __name__ == "__main__":
    raise SystemExit(run_script(__name__))
