"""Figure 18: writer throughput comparison, Snappy compression.

Paper result: "Native parquet writer consistently improves throughput by
20% for snappy compressed files."
"""

from _harness import run_script
from _writer_common import common_gates as gates, run_writer_comparison
from repro.formats.parquet.compression import SNAPPY

OUTPUT = "BENCH_fig18_writer_snappy.json"


def run(smoke: bool) -> dict:
    return run_writer_comparison("fig18_writer_snappy", SNAPPY, smoke)


if __name__ == "__main__":
    raise SystemExit(run_script(__name__))
