"""Bench: sorted-view range engine (bounded scans, range attack, churn).

Writes ``results/BENCH_range_view.{txt,json}``.
"""

from conftest import emit

from repro.bench.experiments import exp_range_view


def test_range_view_report(benchmark):
    report = benchmark.pedantic(exp_range_view.run, rounds=1, iterations=1)
    emit(report)
    summary = report.summary
    assert summary["scan_view_seeks"] > 0
    assert summary["attack_keys_extracted"] > 0
    assert summary["scan_leaked_pins"] == 0
    assert summary["attack_leaked_pins"] == 0
    assert summary["amortize_leaked_pins"] == 0
    # Incremental maintenance must beat rebuild-per-install by a wide
    # margin.
    assert summary["amortize_rebuild_fraction"] < 0.5
