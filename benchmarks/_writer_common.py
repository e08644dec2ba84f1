"""Shared driver for the writer throughput benchmarks (figures 18-20).

Paper setup: 100-node cluster on AWS r5.8xlarge, "writing a list of pages
with millions of rows" per dataset, reporting MB/s for Snappy, Gzip, and
no compression.  Paper result: "our native Parquet writer could
consistently achieve more than 20% throughput" improvement; bigint with
Gzip improves most; all-LINEITEM gains ≈50%.

Throughput here = logical (in-memory) bytes written per second of writer
wall-clock time, on deterministically generated datasets scaled to run in
seconds instead of hours; the two writers are timed against each other
by ``lane_ratio`` and must produce identical files.
"""

from __future__ import annotations

from _harness import LANE_RATIO, WORK_COUNT, gate, lane_ratio
from repro.formats.parquet.writer_native import NativeParquetWriter
from repro.formats.parquet.writer_old import OldParquetWriter
from repro.workloads.tpch import WRITER_DATASET_NAMES, writer_benchmark_dataset

FLAT_ROWS = 60_000
NESTED_ROWS = 6_000
SMOKE_SHRINK = 20


def dataset_rows(name: str) -> int:
    """Nested datasets shred per-value; scale them down to stay snappy."""
    if any(tag in name for tag in ("Map", "Array")):
        return NESTED_ROWS
    if "Lineitem" in name:
        return NESTED_ROWS * 2
    return FLAT_ROWS


def run_writer_comparison(benchmark: str, codec: str, smoke: bool) -> dict:
    """One entry per dataset: old MB/s, native MB/s and the gain."""
    datasets = []
    for name in WRITER_DATASET_NAMES:
        rows = dataset_rows(name) // (SMOKE_SHRINK if smoke else 1)
        _, schema, page = writer_benchmark_dataset(name, rows)
        logical_mb = page.size_in_bytes() / 1_000_000
        timed = lane_ratio(
            lambda: OldParquetWriter(schema, codec=codec).write_pages([page]),
            lambda: NativeParquetWriter(schema, codec=codec).write_pages([page]),
            repeat=1 if smoke else 2,
        )
        datasets.append(
            {
                "name": name,
                "rows": rows,
                "old_mb_per_s": round(logical_mb / (timed.slow_ms / 1000.0), 2),
                "native_mb_per_s": round(logical_mb / (timed.fast_ms / 1000.0), 2),
                "gain": round(timed.ratio, 2),
                # Identical files, different cost.
                "identical": timed.slow_result == timed.fast_result,
            }
        )
    return {
        "benchmark": benchmark,
        "smoke": smoke,
        "codec": codec,
        "datasets": datasets,
    }


def gains(report: dict) -> dict[str, float]:
    return {d["name"]: d["gain"] for d in report["datasets"]}


def common_gates(report: dict) -> list:
    """Paper shape: native consistently >= 20% faster on every dataset, and
    bigint among the biggest winners (the standout was bigint+Gzip, +650%)."""
    found = [
        gate("datasets where the two writers produce different files",
             WORK_COUNT, sum(not d["identical"] for d in report["datasets"]), "==", 0)
    ]
    if not report["smoke"]:
        gain = gains(report)
        found += [
            gate(f"{name}: native / old writer throughput", LANE_RATIO, value, ">", 1.2)
            for name, value in gain.items()
        ]
        found += [
            gate(f"{name}: bigint among the biggest winners", LANE_RATIO, gain[name], ">", 2.0)
            for name in ("Bigint Sequential", "Bigint Random")
        ]
    return found
