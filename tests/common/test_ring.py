"""Consistent-hash ring invariants: determinism, balance, minimal remap."""

import pytest

from repro.common.ring import ConsistentHashRing


NODES = [f"worker-{i}" for i in range(8)]
KEYS = [f"part-{i}" for i in range(4000)]


class TestMembership:
    def test_empty_ring_maps_nothing(self):
        ring = ConsistentHashRing()
        assert ring.lookup("anything") is None

    def test_add_remove_roundtrip(self):
        ring = ConsistentHashRing()
        ring.add("a")
        ring.add("b")
        assert {ring.lookup(key) for key in KEYS} == {"a", "b"}
        ring.remove("a")
        assert {ring.lookup(key) for key in KEYS} == {"b"}

    def test_add_is_idempotent(self):
        ring = ConsistentHashRing()
        ring.add("a")
        ring.add("a")
        assert {ring.lookup(key) for key in KEYS[:50]} == {"a"}
        ring.remove("a")  # one removal undoes both adds
        assert ring.lookup("x") is None

    def test_remove_unknown_node_is_noop(self):
        ring = ConsistentHashRing(["a"])
        ring.remove("never-added")
        assert {ring.lookup(key) for key in KEYS[:50]} == {"a"}

    def test_vnodes_must_be_positive(self):
        with pytest.raises(ValueError):
            ConsistentHashRing(vnodes=0)


class TestDeterminism:
    def test_lookup_is_stable_across_instances(self):
        first = ConsistentHashRing(NODES)
        second = ConsistentHashRing(NODES)
        assert [first.lookup(k) for k in KEYS] == [second.lookup(k) for k in KEYS]

    def test_lookup_is_insertion_order_independent(self):
        forward = ConsistentHashRing(NODES)
        backward = ConsistentHashRing(reversed(NODES))
        rebuilt = ConsistentHashRing(NODES + ["extra"])
        rebuilt.remove("extra")
        for key in KEYS:
            assert forward.lookup(key) == backward.lookup(key) == rebuilt.lookup(key)


class TestBalance:
    def test_vnodes_spread_load(self):
        ring = ConsistentHashRing(NODES)
        counts = {node: 0 for node in NODES}
        for key in KEYS:
            counts[ring.lookup(key)] += 1
        # With 64 vnodes each node should hold a sane share of the
        # keyspace: no node starved, no node above ~3x fair share.
        fair = len(KEYS) / len(NODES)
        assert min(counts.values()) > 0
        assert max(counts.values()) < 3 * fair


class TestMinimalRemap:
    def test_single_removal_remaps_only_victims_keys(self):
        ring = ConsistentHashRing(NODES)
        before = {key: ring.lookup(key) for key in KEYS}
        victim = NODES[3]
        ring.remove(victim)
        moved = 0
        for key in KEYS:
            after = ring.lookup(key)
            if after != before[key]:
                assert before[key] == victim  # only the victim's keys move
                moved += 1
        # Every victim key moved (it has no points left) and nothing else:
        # the remap fraction is ~1/N, bounded here at 2/N.
        assert moved == sum(1 for home in before.values() if home == victim)
        assert moved / len(KEYS) <= 2 / len(NODES)

    def test_addition_only_steals_keys_for_new_node(self):
        ring = ConsistentHashRing(NODES)
        before = {key: ring.lookup(key) for key in KEYS}
        ring.add("worker-new")
        for key in KEYS:
            after = ring.lookup(key)
            if after != before[key]:
                assert after == "worker-new"

    def test_remove_then_readd_restores_placement(self):
        ring = ConsistentHashRing(NODES)
        before = {key: ring.lookup(key) for key in KEYS}
        ring.remove(NODES[0])
        ring.add(NODES[0])
        assert {key: ring.lookup(key) for key in KEYS} == before
