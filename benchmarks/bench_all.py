"""Regenerate every table and figure: each ``bench_*`` script in turn through
the one harness, then one committed -> this-run table of every gate
(``PYTHONPATH=src python benchmarks/bench_all.py [--smoke] [--output DIR]``)."""

from _harness import run_all

if __name__ == "__main__":
    raise SystemExit(run_all())
