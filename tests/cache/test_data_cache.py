"""Tiered worker-local data cache: tiers, policies, shadow, observability."""

import pytest

from repro.cache import data_cache
from repro.cache.data_cache import (
    HOT_READ_MS,
    SSD_READ_MS,
    CacheTier,
    DataCacheConfig,
    FrequencySketch,
    LfuPolicy,
    LruPolicy,
    ShadowCache,
    TieredDataCache,
    TinyLfuPolicy,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import QueryTrace, activate


@pytest.fixture(autouse=True)
def ten_byte_entries(monkeypatch):
    """A read that names no size is charged 10 bytes: a few keys fill a tier."""
    monkeypatch.setattr(data_cache, "DEFAULT_ENTRY_BYTES", 10)


def tier_of(cache: TieredDataCache, key: str):
    """The tier holding ``key``, or None (a hit refreshes its recency)."""
    for tier in (cache.hot, cache.ssd):
        if tier.get(key) is not None:
            return tier.name
    return None


def make_cache(**overrides) -> TieredDataCache:
    defaults = dict(hot_bytes=100, ssd_bytes=300)
    defaults.update(overrides)
    return TieredDataCache(DataCacheConfig(**defaults))


class TestConfig:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown data-cache policy"):
            DataCacheConfig(policy="clairvoyant")

    def test_known_policies_accepted(self):
        for policy in ("lru", "lfu", "tinylfu"):
            assert DataCacheConfig(policy=policy).policy == policy


class TestTieredReads:
    def test_miss_then_hot_hit(self):
        cache = make_cache()
        first = cache.read("a")
        assert first.tier == "miss" and not first.hit
        second = cache.read("a")
        assert second.tier == "hot" and second.hit
        assert second.latency_ms == HOT_READ_MS
        assert tier_of(cache, "a") == "hot"

    def test_hot_eviction_demotes_to_ssd(self):
        cache = make_cache(hot_bytes=20, ssd_bytes=100)
        cache.read("a")
        cache.read("b")
        cache.read("c")  # hot full: "a" (LRU) demotes to ssd
        assert tier_of(cache, "a") == "ssd"
        assert tier_of(cache, "b") == "hot"
        assert tier_of(cache, "c") == "hot"
        assert cache.stats.evictions_hot == 1

    def test_ssd_hit_promotes_back_to_hot(self):
        cache = make_cache(hot_bytes=20, ssd_bytes=100)
        cache.read("a")
        cache.read("b")
        cache.read("c")  # "a" now on ssd
        read = cache.read("a")
        assert read.tier == "ssd"
        assert read.latency_ms == SSD_READ_MS
        assert tier_of(cache, "a") == "hot"  # promoted
        assert tier_of(cache, "b") == "ssd"  # displaced by the promotion

    def test_ssd_eviction_leaves_the_cache(self):
        cache = make_cache(hot_bytes=10, ssd_bytes=20)
        for key in ("a", "b", "c", "d"):
            cache.read(key)
        # 4 entries into 10+20 bytes of capacity: someone is gone for good.
        assert sum(tier_of(cache, key) is not None for key in "abcd") == 3
        assert cache.stats.evictions_ssd >= 1

    def test_entry_larger_than_both_tiers_never_cached(self):
        cache = make_cache(hot_bytes=10, ssd_bytes=10)
        cache.read("huge", size_bytes=1000)
        assert tier_of(cache, "huge") is None
        assert cache.read("huge", size_bytes=1000).tier == "miss"

    def test_loader_runs_only_on_miss_and_value_is_cached(self):
        cache = make_cache()
        calls = []

        def load():
            calls.append(1)
            return b"payload"

        first = cache.read("seg", size_bytes=10, loader=load)
        second = cache.read("seg", size_bytes=10, loader=load)
        assert first.value == b"payload"
        assert second.value == b"payload"
        assert second.tier == "hot"
        assert len(calls) == 1

    def test_clear_drops_both_tiers(self):
        cache = make_cache(hot_bytes=20)
        for key in ("a", "b", "c"):
            cache.read(key)
        cache.clear()
        assert cache.hot.used_bytes == cache.ssd.used_bytes == 0
        assert [tier_of(cache, key) for key in "abc"] == [None, None, None]

    def test_hit_ratio_accounting(self):
        cache = make_cache()
        cache.read("a")
        cache.read("a")
        cache.read("b")
        cache.read("a")
        assert cache.stats.hits == 2
        assert cache.stats.misses == 2
        assert cache.hit_ratio() == pytest.approx(0.5)


class TestPolicies:
    def test_lru_evicts_least_recent(self):
        tier = CacheTier("t", 30, LruPolicy())
        for key in ("a", "b", "c"):
            tier.put(key, 10)
        tier.get("a")  # refresh "a": "b" is now LRU
        _, evicted, _ = tier.put("d", 10)
        assert [e[0] for e in evicted] == ["b"]

    def test_lfu_evicts_least_frequent(self):
        tier = CacheTier("t", 30, LfuPolicy())
        for key in ("a", "b", "c"):
            tier.put(key, 10)
        tier.get("a")
        tier.get("a")
        tier.get("c")
        _, evicted, _ = tier.put("d", 10)
        assert [e[0] for e in evicted] == ["b"]  # never re-read

    def test_lfu_ties_break_on_recency(self):
        tier = CacheTier("t", 30, LfuPolicy())
        for key in ("a", "b", "c"):
            tier.put(key, 10)  # all count 1
        _, evicted, _ = tier.put("d", 10)
        assert [e[0] for e in evicted] == ["a"]  # least recent among ties

    def test_tinylfu_rejects_one_hit_wonder(self):
        sketch = FrequencySketch()
        tier = CacheTier("t", 20, TinyLfuPolicy(sketch))
        for _ in range(3):
            sketch.increment("hot1")
            sketch.increment("hot2")
        tier.put("hot1", 10)
        tier.put("hot2", 10)
        sketch.increment("scan")  # seen once: colder than any victim
        admitted, evicted, rejected = tier.put("scan", 10)
        assert not admitted and rejected and evicted == []
        assert tier.get("hot1") is not None and tier.get("hot2") is not None

    def test_tinylfu_admits_hotter_candidate(self):
        sketch = FrequencySketch()
        tier = CacheTier("t", 10, TinyLfuPolicy(sketch))
        sketch.increment("cold")
        tier.put("cold", 10)
        for _ in range(5):
            sketch.increment("hot")
        admitted, evicted, rejected = tier.put("hot", 10)
        assert admitted and not rejected
        assert [e[0] for e in evicted] == ["cold"]

    def test_tiered_cache_counts_admission_rejects(self):
        cache = make_cache(policy="tinylfu", hot_bytes=10, ssd_bytes=10)
        for _ in range(4):
            cache.read("popular")
        cache.read("scan-once")
        assert cache.stats.admission_rejects_hot >= 1
        assert tier_of(cache, "popular") == "hot"
        # Rejected from hot by the filter, but the (empty) SSD tier had
        # room — no victim to protect, so the candidate lands there.
        assert tier_of(cache, "scan-once") == "ssd"


class TestFrequencySketch:
    def test_estimate_tracks_increments(self):
        sketch = FrequencySketch()
        for _ in range(5):
            sketch.increment("k")
        assert sketch.estimate("k") >= 5
        assert sketch.estimate("never-seen") == 0

    def test_counters_saturate_at_15(self):
        sketch = FrequencySketch(sample_size=10_000)
        for _ in range(100):
            sketch.increment("k")
        assert sketch.estimate("k") == 15

    def test_aging_halves_counts(self):
        sketch = FrequencySketch(sample_size=8)
        for _ in range(8):  # the 8th increment triggers aging
            sketch.increment("k")
        assert sketch.estimate("k") == 4


class TestShadowCache:
    def test_estimates_larger_cache_hit_ratio(self):
        shadow = ShadowCache(capacity_bytes=1000)
        for _ in range(3):
            for i in range(10):
                shadow.access(f"k{i}", 10)
        # All 10 keys fit: every access after the first round hits.
        assert shadow.hits == 20
        assert shadow.estimated_hit_ratio() == pytest.approx(20 / 30)

    def test_bounded_at_capacity(self):
        shadow = ShadowCache(capacity_bytes=20)
        for i in range(10):
            shadow.access(f"k{i}", 10)
        assert len(shadow._entries) == 2

    def test_oversized_entry_not_admitted(self):
        shadow = ShadowCache(capacity_bytes=10)
        assert shadow.access("big", 100) is False
        assert shadow.access("big", 100) is False  # still a miss

    def test_shadow_survives_cache_clear(self):
        cache = make_cache()
        cache.read("a")
        cache.clear()
        cache.read("a")
        # Real cache restarted cold (miss), but the shadow remembers.
        assert cache.stats.misses == 2
        assert cache.shadow.hits == 1


class TestObservability:
    def test_labeled_metrics_series(self):
        metrics = MetricsRegistry()
        config = DataCacheConfig(hot_bytes=20, ssd_bytes=40)
        cache = TieredDataCache(config, worker="w0", metrics=metrics)
        for key in ("a", "b", "c"):
            cache.read(key)
        cache.read("a")  # ssd hit (demoted) -> promotion
        cache.read("c")  # hot hit
        assert metrics.total("data_cache_misses_total", worker="w0") == 3.0
        assert metrics.total(
            "data_cache_hits_total", worker="w0", tier="hot", policy="lru"
        ) == 1.0
        assert metrics.total("data_cache_hits_total", worker="w0", tier="ssd") == 1.0
        assert metrics.total("data_cache_evictions_total", worker="w0") >= 1.0

    @pytest.mark.parametrize("policy", ["lru", "tinylfu"])
    def test_each_series_is_looked_up_once(self, policy):
        # Every update used to look its series up in the registry, sorting
        # the label set each time.  The handles are cached now; the series,
        # the order they were created in and their values are those of a
        # lookup on every update.
        class Forgetful(dict):
            def __setitem__(self, key, value):
                pass

        config = DataCacheConfig(hot_bytes=20, ssd_bytes=40, policy=policy)
        cached_metrics, per_update_metrics = MetricsRegistry(), MetricsRegistry()
        lookups = []
        for metrics in (cached_metrics, per_update_metrics):
            for kind in ("counter", "gauge"):
                original = getattr(metrics, kind)

                def counting(name, _original=original, _metrics=metrics, **labels):
                    lookups.append((_metrics, name))
                    return _original(name, **labels)

                setattr(metrics, kind, counting)
        cached = TieredDataCache(config, worker="w0", metrics=cached_metrics)
        per_update = TieredDataCache(config, worker="w0", metrics=per_update_metrics)
        per_update._instruments = Forgetful()
        for cache in (cached, per_update):
            for key in "abcabcddaeb":
                cache.read(key)
        assert list(cached_metrics._counters) == list(per_update_metrics._counters)
        assert list(cached_metrics._gauges) == list(per_update_metrics._gauges)
        assert cached_metrics.to_json() == per_update_metrics.to_json()
        series = len(cached_metrics._counters) + len(cached_metrics._gauges)
        assert [m for m, _ in lookups].count(cached_metrics) == series
        assert [m for m, _ in lookups].count(per_update_metrics) > 3 * series

    def test_used_bytes_gauge_tracks_tiers(self):
        metrics = MetricsRegistry()
        config = DataCacheConfig(hot_bytes=20, ssd_bytes=40)
        cache = TieredDataCache(config, worker="w0", metrics=metrics)
        for key in ("a", "b", "c"):
            cache.read(key)
        assert metrics.gauge(
            "data_cache_used_bytes", worker="w0", policy="lru", tier="hot"
        ).value == cache.hot.used_bytes
        assert metrics.gauge(
            "data_cache_used_bytes", worker="w0", policy="lru", tier="ssd"
        ).value == cache.ssd.used_bytes

    def test_trace_instants_emitted_when_tracer_active(self):
        cache = make_cache()
        trace = QueryTrace()
        with activate(trace), trace.span("query"):
            cache.read("a")
            cache.read("a")
        instants = trace.find("data_cache")
        assert [i.attributes["tier"] for i in instants] == ["miss", "hot"]
        assert all(i.attributes["worker"] == "worker" for i in instants)

    def test_no_tracer_no_instants(self):
        cache = make_cache()
        cache.read("a")  # must not blow up without an active tracer
