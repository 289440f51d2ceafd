"""Bench: ingest wall-clock (bulk_load / compact_all / put_many).

Writes ``results/BENCH_ingest.{txt,json}``.
"""

from conftest import emit

from repro.bench.experiments import exp_ingest


def test_ingest_report(benchmark):
    report = benchmark.pedantic(exp_ingest.run, rounds=1, iterations=1)
    emit(report)
    # Group commit must pay for itself, measured same-run.
    assert report.summary["put_many_speedup_vs_loop"] > 1.0
