"""Figure 19: writer throughput comparison, Gzip compression.

Paper result: ≥20% gains everywhere; "for bigint type with Gzip
compression, our native parquet writer performs best, with more than 650%
throughput improvements."
"""

from _harness import LANE_RATIO, gate, run_script
from _writer_common import common_gates, gains, run_writer_comparison
from repro.formats.parquet.compression import GZIP

OUTPUT = "BENCH_fig19_writer_gzip.json"


def run(smoke: bool) -> dict:
    return run_writer_comparison("fig19_writer_gzip", GZIP, smoke)


def gates(report: dict) -> list:
    found = common_gates(report)
    if not report["smoke"]:
        gain = gains(report)
        # Paper highlight: bigint is the standout under Gzip — the best
        # gain of all, or failing that above 2.5x.
        found.append(
            gate("best bigint gain vs the best gain of all (capped at 2.5x)", LANE_RATIO,
                 max(gain["Bigint Sequential"], gain["Bigint Random"]),
                 ">=", min(2.5, max(gain.values())))
        )
    return found


if __name__ == "__main__":
    raise SystemExit(run_script(__name__))
