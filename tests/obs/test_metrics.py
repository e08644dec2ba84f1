"""Unit tests for the labeled metrics registry."""

import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_monotonic(self):
        counter = Counter()
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            Counter().inc(-1.0)


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge()
        gauge.set(10)
        gauge.inc(3)
        gauge.dec()
        assert gauge.value == 12.0


class TestHistogram:
    def test_observation_lands_in_first_bucket_with_bound_gte_value(self):
        histogram = Histogram(buckets=(1.0, 10.0, 100.0))
        histogram.observe(0.5)
        histogram.observe(1.0)  # boundary values belong to their bucket
        histogram.observe(7.0)
        histogram.observe(100.0)
        assert histogram.bucket_counts == [2, 1, 1, 0]
        assert histogram.count == 4
        assert histogram.sum == 108.5

    def test_overflow_goes_to_inf_bucket(self):
        histogram = Histogram(buckets=(1.0, 10.0))
        histogram.observe(11.0)
        assert histogram.bucket_counts == [0, 0, 1]

    def test_unsorted_buckets_rejected(self):
        with pytest.raises(ValueError):
            Histogram(buckets=(10.0, 1.0))

    def test_snapshot(self):
        histogram = Histogram(buckets=(1.0, 2.0))
        histogram.observe(1.5)
        assert histogram.snapshot() == {
            "buckets": [1.0, 2.0],
            "counts": [0, 1, 0],
            "count": 1,
            "sum": 1.5,
        }


class TestRegistry:
    def test_get_or_create_returns_same_instrument_per_label_set(self):
        registry = MetricsRegistry()
        a = registry.counter("requests_total", cluster="x")
        b = registry.counter("requests_total", cluster="x")
        c = registry.counter("requests_total", cluster="y")
        assert a is b
        assert a is not c

    def test_label_order_does_not_matter(self):
        registry = MetricsRegistry()
        a = registry.counter("t", x="1", y="2")
        b = registry.counter("t", y="2", x="1")
        assert a is b

    def test_total_sums_series_matching_a_label_subset(self):
        registry = MetricsRegistry()
        registry.counter("rows_total", query_id="q0", kind="GATHER").inc(10)
        registry.counter("rows_total", query_id="q0", kind="REPARTITION").inc(5)
        registry.counter("rows_total", query_id="q1", kind="GATHER").inc(99)
        assert registry.total("rows_total", query_id="q0") == 15.0
        assert registry.total("rows_total", kind="GATHER") == 109.0
        assert registry.total("rows_total") == 114.0
        assert registry.total("rows_total", query_id="nope") == 0.0

    def test_series_lists_labels_and_values(self):
        registry = MetricsRegistry()
        registry.counter("hits_total", cache="a").inc(2)
        registry.counter("hits_total", cache="b").inc(3)
        assert registry.series("hits_total") == [
            ({"cache": "a"}, 2.0),
            ({"cache": "b"}, 3.0),
        ]

    def test_histogram_uses_default_buckets(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("latency_ms")
        assert histogram.buckets == DEFAULT_BUCKETS

    def test_snapshot_is_deterministic_and_json_serializable(self):
        def build():
            registry = MetricsRegistry()
            registry.counter("b_total", z="2").inc()
            registry.counter("b_total", a="1").inc()
            registry.counter("a_total").inc(4)
            registry.gauge("live").set(3)
            registry.histogram("h").observe(42.0)
            return registry

        first, second = build(), build()
        assert first.snapshot() == second.snapshot()
        assert first.to_json() == second.to_json()
        snapshot = first.snapshot()
        assert set(snapshot) == {"counters", "gauges", "histograms"}
        assert snapshot["counters"]["a_total"] == [{"labels": {}, "value": 4.0}]
        # Series within a metric are ordered by label key.
        assert [entry["labels"] for entry in snapshot["counters"]["b_total"]] == [
            {"a": "1"},
            {"z": "2"},
        ]


def test_an_engines_registry_is_bounded_by_kinds_of_things_not_queries_run():
    # A series per query (a query_id label) grew the registry by eight
    # series a query, for the life of the engine.
    from repro.workloads.traffic_storm import QUERY_TEMPLATES, make_storm_engine

    engine = make_storm_engine(rows=120)

    def series_after(queries: int) -> int:
        for index in range(queries):
            engine.execute(QUERY_TEMPLATES[index % len(QUERY_TEMPLATES)][1])
        snapshot = engine.metrics.snapshot()
        return sum(len(series) for kind in snapshot.values() for series in kind.values())

    after_20 = series_after(20)
    assert series_after(180) == after_20
