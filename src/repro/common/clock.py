"""Deterministic simulated time.

The paper's experiments run on 100-200 node clusters against remote storage
(HDFS, S3) and remote query systems (Druid, Pinot).  A single-process Python
reproduction cannot measure those distributed costs with wall-clock time, so
every substrate in this repository charges its modeled latencies to a
``SimulatedClock``.  The clock is deterministic: the same query on the same
data always advances it by the same amount, which makes benchmark output
reproducible across machines.

Operators that do *real* algorithmic work (decoding values, probing hash
tables) are additionally measured with wall-clock time by the benchmark
harness; the simulated clock only covers costs that exist because the real
deployment is distributed.
"""

from __future__ import annotations


class SimulatedClock:
    """A monotonically advancing virtual clock measured in milliseconds.

    Components call :meth:`advance` to charge latency and :meth:`now_ms` to
    read virtual time.  ``parallel_advance`` models work fanned out across
    ``ways`` parallel units: the clock advances by the slowest lane.
    """

    def __init__(self, start_ms: float = 0.0) -> None:
        self._now_ms = float(start_ms)

    def now_ms(self) -> float:
        """Return the current virtual time in milliseconds."""
        return self._now_ms

    def advance(self, delta_ms: float) -> float:
        """Advance the clock by ``delta_ms`` and return the new time."""
        if delta_ms < 0:
            raise ValueError(f"cannot advance clock by negative {delta_ms}")
        self._now_ms += delta_ms
        return self._now_ms

    def parallel_advance(self, lane_costs_ms: list[float]) -> float:
        """Advance by the maximum of ``lane_costs_ms`` (parallel execution).

        An empty list of lanes costs nothing.
        """
        if lane_costs_ms:
            self.advance(max(lane_costs_ms))
        return self._now_ms
