"""Figure 20: writer throughput comparison, no compression.

Paper result: ≥20% gains everywhere; "when writing all columns of TPCH
LINEITEM, the throughput gain is around 50%."
"""

from _harness import LANE_RATIO, gate, run_script
from _writer_common import common_gates, gains, run_writer_comparison
from repro.formats.parquet.compression import UNCOMPRESSED

OUTPUT = "BENCH_fig20_writer_none.json"


def run(smoke: bool) -> dict:
    return run_writer_comparison("fig20_writer_none", UNCOMPRESSED, smoke)


def gates(report: dict) -> list:
    found = common_gates(report)
    if not report["smoke"]:
        # Paper highlight: all-LINEITEM gains are substantial (~50%).
        found.append(
            gate("All Lineitem columns: native / old writer throughput", LANE_RATIO,
                 gains(report)["All Lineitem columns"], ">", 1.3)
        )
    return found


if __name__ == "__main__":
    raise SystemExit(run_script(__name__))
