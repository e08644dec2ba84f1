"""Deterministic simulated time.

The paper's experiments run on 100-200 node clusters against remote storage
(HDFS, S3) and remote query systems (Druid, Pinot).  A single-process Python
reproduction cannot measure those distributed costs with wall-clock time, so
every substrate in this repository charges its modeled latencies to a
``SimulatedClock``.  The clock is deterministic: the same query on the same
data always advances it by the same amount, which makes benchmark output
reproducible across machines.

A query's charges are one :class:`Account`, its own clock, made through
``ExecutionContext.charge``; a running stage's tasks charge its lanes
(accounts too), and the stage charges the query its most-loaded lane.
A substrate charges its clock through :func:`charge`, which hands the
charge to the running query when the query's engine runs on that clock.

Operators that do *real* algorithmic work (decoding values, probing hash
tables) are additionally measured with wall-clock time by the benchmark
harness; the simulated clock only covers costs that exist because the real
deployment is distributed.
"""

from __future__ import annotations

from operator import attrgetter

# What a query's simulated time is spent on, a closed set (docs/API.md,
# "One simulated account per query").
CHARGE_KINDS = ("coordinator", "split_rpc", "storage", "store", "network", "task", "retry")


class SimulatedClock:
    """A monotonically advancing virtual clock measured in milliseconds.

    Components call :meth:`advance` to charge latency and :meth:`now_ms` to
    read virtual time.  :meth:`parallel_advance` charges work that runs on
    parallel lanes: the clock advances by the most-loaded lane.
    """

    __slots__ = ("_now_ms",)

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

    def parallel_advance(self, lane_costs_ms: list[float]) -> None:
        """Advance by the largest of ``lane_costs_ms``, each the total load
        of one parallel lane; no lanes cost nothing."""
        if lane_costs_ms:
            self.advance(max(lane_costs_ms))


class Account(SimulatedClock):
    """Simulated time charged by kind: a query's own clock, or one lane of
    a running stage, a worker's share of it.  Each advance also advances
    ``shared``, the clock the query's engine runs on, if any, where
    queries' charges interleave.

    ``charged`` holds only the kinds charged so far, each summed in charge
    order from 0.0, so a stage's lanes, up to ``PRESTO_WORKERS`` of them,
    cost one small dict each; :meth:`charged_ms` reads every kind."""

    __slots__ = ("shared", "charged")

    def __init__(self, start_ms: float = 0.0, shared: SimulatedClock | None = None) -> None:
        self._now_ms = float(start_ms)
        self.shared = shared
        self.charged: dict[str, float] = {}

    def advance(self, delta_ms: float) -> float:
        if self.shared is not None:
            self.shared.advance(delta_ms)
        return super().advance(delta_ms)

    def charge(self, kind: str, ms: float) -> None:
        charged = self.charged
        charged[kind] = charged.get(kind, 0.0) + ms
        self._now_ms += ms  # never negative: a charge is a cost
        if self.shared is not None:
            self.shared.advance(ms)

    def charged_ms(self) -> dict[str, float]:
        """Milliseconds charged per kind, every one of ``CHARGE_KINDS`` in
        order (0.0 for a kind never charged)."""
        charged = self.charged
        return {kind: charged.get(kind, 0.0) for kind in CHARGE_KINDS}

    def charge_stage(self, lanes: list[Account]) -> float:
        """Charge a stage whose ``lanes`` began at this account's time: it
        lasts until its most-loaded lane is done.  Returns how long."""
        busiest = max(lanes, key=attrgetter("_now_ms"))
        charged = self.charged
        for kind, ms in busiest.charged.items():
            charged[kind] = charged.get(kind, 0.0) + ms
        stage_ms = busiest._now_ms - self._now_ms
        self.advance(stage_ms)
        self._now_ms = busiest._now_ms  # to the bit: its spans end there
        return stage_ms


RUNNING: list = []  # each ExecutionContext in a running ``with`` block


def charge(clock: SimulatedClock, kind: str, ms: float) -> None:
    """Charge a substrate's simulated ``ms`` of ``kind`` on its ``clock``:
    to the running query when its engine runs on that clock (an engine
    built on the store's clock), else to ``clock`` alone, the substrate's
    own time line."""
    if RUNNING and RUNNING[-1].stats.account.shared is clock:
        RUNNING[-1].charge(kind, ms)
    else:
        clock.advance(ms)
