"""A labeled metrics registry: counters, gauges, fixed-bucket histograms.

The reproduction's equivalent of the per-query metrics, cache hit rates
and retry counts the paper's operators run Presto by (see also the
Twitter hybrid-cloud and metadata-caching follow-ups, which report
cache-hit and latency metrics as first-class outputs).  Instruments are
named following the Prometheus convention (``snake_case`` with a
``_total`` suffix for counters) and carry a small label set — query id,
stage, connector, cache name — so one registry serves scheduler,
exchange, cache, storage and gateway series side by side.

Snapshots are plain dicts with deterministically ordered entries, so two
runs of the same seeded workload serialize byte-identically; the CLI
dumps them as JSON (``--metrics``).
"""

from __future__ import annotations

import json
from typing import Iterator, Optional, Sequence

LabelKey = tuple[tuple[str, str], ...]

# Simulated milliseconds spread several orders of magnitude; one shared
# fixed bucket ladder keeps histograms comparable across instruments.
DEFAULT_BUCKETS: tuple[float, ...] = (1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0,
                                      250.0, 500.0, 1000.0, 2500.0, 5000.0)


def _label_key(labels: dict) -> LabelKey:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing value."""

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter can only increase, got {amount}")
        self.value += amount


class Gauge:
    """A value that can go up and down (e.g. live cache entries)."""

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """Fixed-bucket histogram: cumulative bucket counts plus sum/count."""

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        if list(buckets) != sorted(buckets):
            raise ValueError("histogram buckets must be sorted ascending")
        self.buckets = tuple(float(b) for b in buckets)
        self.bucket_counts = [0] * (len(self.buckets) + 1)  # last = +Inf
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                self.bucket_counts[index] += 1
                return
        self.bucket_counts[-1] += 1

    def snapshot(self) -> dict:
        return {
            "buckets": list(self.buckets),
            "counts": list(self.bucket_counts),
            "count": self.count,
            "sum": self.sum,
        }


class MetricsRegistry:
    """Named, labeled instruments; get-or-create on access."""

    def __init__(self) -> None:
        self._counters: dict[tuple[str, LabelKey], Counter] = {}
        self._gauges: dict[tuple[str, LabelKey], Gauge] = {}
        self._histograms: dict[tuple[str, LabelKey], Histogram] = {}

    # -- instrument access ----------------------------------------------------

    def counter(self, name: str, **labels: object) -> Counter:
        key = (name, _label_key(labels))
        counter = self._counters.get(key)
        if counter is None:
            counter = self._counters[key] = Counter()
        return counter

    def gauge(self, name: str, **labels: object) -> Gauge:
        key = (name, _label_key(labels))
        gauge = self._gauges.get(key)
        if gauge is None:
            gauge = self._gauges[key] = Gauge()
        return gauge

    def histogram(
        self,
        name: str,
        buckets: Optional[Sequence[float]] = None,
        **labels: object,
    ) -> Histogram:
        key = (name, _label_key(labels))
        histogram = self._histograms.get(key)
        if histogram is None:
            histogram = self._histograms[key] = Histogram(buckets or DEFAULT_BUCKETS)
        return histogram

    # -- aggregation ----------------------------------------------------------

    def _matching(
        self, table: dict, name: str, labels: dict
    ) -> Iterator[tuple[LabelKey, object]]:
        wanted = set(_label_key(labels))
        for (metric_name, label_key), instrument in table.items():
            if metric_name == name and wanted.issubset(set(label_key)):
                yield label_key, instrument

    def total(self, name: str, **labels: object) -> float:
        """Sum of all counter series of ``name`` matching the label subset."""
        return sum(
            instrument.value
            for _, instrument in self._matching(self._counters, name, labels)
        )

    def series(self, name: str, **labels: object) -> list[tuple[dict, float]]:
        """(labels, value) for each counter series matching the subset."""
        return [
            (dict(label_key), instrument.value)
            for label_key, instrument in sorted(
                self._matching(self._counters, name, labels), key=lambda kv: kv[0]
            )
        ]

    # -- snapshots ------------------------------------------------------------

    def snapshot(self) -> dict:
        """Plain-dict dump of every series, deterministically ordered."""
        result: dict = {"counters": {}, "gauges": {}, "histograms": {}}
        for (name, label_key), counter in sorted(self._counters.items()):
            result["counters"].setdefault(name, []).append(
                {"labels": dict(label_key), "value": counter.value}
            )
        for (name, label_key), gauge in sorted(self._gauges.items()):
            result["gauges"].setdefault(name, []).append(
                {"labels": dict(label_key), "value": gauge.value}
            )
        for (name, label_key), histogram in sorted(self._histograms.items()):
            result["histograms"].setdefault(name, []).append(
                {"labels": dict(label_key), **histogram.snapshot()}
            )
        return result

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.snapshot(), sort_keys=True, indent=indent)
