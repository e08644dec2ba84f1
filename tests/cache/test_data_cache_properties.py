"""Property tests for the data-cache policies and the shadow cache.

Reference models are deliberately naive (ordered lists, dict counters);
the properties pin the *semantics* — LRU recency order, LFU
frequency-then-recency victims, TinyLFU admission comparisons, and the
shadow cache's upper-bound guarantee for LRU (uniform entry sizes, where
the LRU inclusion property holds).
"""

from collections import OrderedDict
from unittest.mock import patch

from hypothesis import given, settings, strategies as st

from repro.cache import data_cache
from repro.cache.data_cache import (
    CacheTier,
    DataCacheConfig,
    FrequencySketch,
    LfuPolicy,
    LruPolicy,
    TieredDataCache,
    TinyLfuPolicy,
)

KEYS = [f"k{i}" for i in range(12)]
accesses = st.lists(st.sampled_from(KEYS), min_size=1, max_size=200)


def replay(tier: CacheTier, trace: list[str], size: int = 1) -> None:
    for key in trace:
        if key in tier:
            tier.get(key)
        else:
            tier.put(key, size)


class TestLruInvariants:
    @given(trace=accesses, slots=st.integers(min_value=1, max_value=8))
    def test_contents_match_reference_lru(self, trace, slots):
        tier = CacheTier("t", slots, LruPolicy())
        model: "OrderedDict[str, None]" = OrderedDict()
        for key in trace:
            if key in tier:
                tier.get(key)
                model.move_to_end(key)
            else:
                tier.put(key, 1)
                model[key] = None
                if len(model) > slots:
                    model.popitem(last=False)
        assert set(tier.keys()) == set(model)
        if len(tier) == slots:
            # The next victim is the least recently used key.
            assert tier.policy.victim() == next(iter(model))

    @given(trace=accesses, slots=st.integers(min_value=1, max_value=8))
    def test_used_bytes_never_exceeds_capacity(self, trace, slots):
        tier = CacheTier("t", slots, LruPolicy())
        for key in trace:
            if key in tier:
                tier.get(key)
            else:
                tier.put(key, 1)
            assert 0 <= tier.used_bytes <= slots
            assert tier.used_bytes == len(tier)


class TestLfuInvariants:
    @given(trace=accesses, slots=st.integers(min_value=1, max_value=8))
    def test_victim_is_least_frequent_then_least_recent(self, trace, slots):
        tier = CacheTier("t", slots, LfuPolicy())
        counts: dict[str, int] = {}
        recency: "OrderedDict[str, None]" = OrderedDict()
        for key in trace:
            if key in tier:
                tier.get(key)
                counts[key] += 1
                recency.move_to_end(key)
            else:
                evicted = tier.put(key, 1)[1]
                for victim, _, _ in evicted:
                    del counts[victim]
                    del recency[victim]
                counts[key] = 1
                recency[key] = None
        assert set(tier.keys()) == set(counts)
        if len(tier) > 0:
            expected = min(recency, key=lambda k: counts[k])
            assert tier.policy.victim() == expected


class TestTinyLfuInvariants:
    @given(
        increments=st.lists(st.sampled_from(KEYS), min_size=0, max_size=100),
        candidate=st.sampled_from(KEYS),
        victim=st.sampled_from(KEYS),
    )
    def test_admission_is_estimate_comparison(self, increments, candidate, victim):
        sketch = FrequencySketch()
        policy = TinyLfuPolicy(sketch)
        for key in increments:
            sketch.increment(key)
        assert policy.admit(candidate, victim) == (
            sketch.estimate(candidate) > sketch.estimate(victim)
        )

    @given(increments=st.lists(st.sampled_from(KEYS), min_size=0, max_size=100))
    def test_estimate_upper_bounds_true_count_below_saturation(self, increments):
        # Count-min never undercounts below the saturation point (15) and
        # the aging threshold (sample_size=4096), both out of reach at
        # <= 100 total increments.
        sketch = FrequencySketch()
        true_counts: dict[str, int] = {}
        for key in increments:
            sketch.increment(key)
            true_counts[key] = true_counts.get(key, 0) + 1
        for key, count in true_counts.items():
            assert sketch.estimate(key) >= min(count, 15)


class TestShadowCacheBound:
    @given(
        trace=st.lists(st.sampled_from(KEYS), min_size=1, max_size=300),
        hot_slots=st.integers(min_value=1, max_value=4),
        ssd_slots=st.integers(min_value=1, max_value=8),
        shadow_factor=st.integers(min_value=1, max_value=4),
        entry_bytes=st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=60)
    def test_estimate_bounds_actual_lru_hit_ratio(
        self, trace, hot_slots, ssd_slots, shadow_factor, entry_bytes
    ):
        # Uniform entry sizes: the two-tier LRU (hot holds the most
        # recent keys, SSD the next-recent, evictions in global recency
        # order) is equivalent to one LRU of hot+ssd slots, and the
        # K x larger shadow LRU holds a superset (inclusion property) —
        # so its estimate is a true upper bound.
        config = DataCacheConfig(
            policy="lru",
            hot_bytes=hot_slots * entry_bytes,
            ssd_bytes=ssd_slots * entry_bytes,
            shadow_factor=shadow_factor,
        )
        cache = TieredDataCache(config)
        with patch.object(data_cache, "DEFAULT_ENTRY_BYTES", entry_bytes):
            for key in trace:
                cache.read(key)
        estimate = cache.shadow.estimated_hit_ratio()
        assert cache.hit_ratio() <= estimate <= 1.0
