"""Tests for the simulated clock."""

import pytest

from repro.common.clock import SimulatedClock


class TestSimulatedClock:
    def test_starts_at_zero(self):
        assert SimulatedClock().now_ms() == 0.0

    def test_advance(self):
        clock = SimulatedClock()
        clock.advance(100)
        clock.advance(50)
        assert clock.now_ms() == 150

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            SimulatedClock().advance(-1)

    def test_parallel_advance_takes_max(self):
        clock = SimulatedClock()
        clock.parallel_advance([10, 30, 20])
        assert clock.now_ms() == 30

    def test_parallel_advance_empty_is_noop(self):
        clock = SimulatedClock()
        clock.parallel_advance([])
        assert clock.now_ms() == 0

    def test_determinism(self):
        a, b = SimulatedClock(), SimulatedClock()
        for delta in (1, 2.5, 100):
            a.advance(delta)
            b.advance(delta)
        assert a.now_ms() == b.now_ms()

