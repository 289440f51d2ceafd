"""Bench: filter-probe engine (batched probes, end-to-end attack).

Writes ``results/BENCH_filter_probe.{txt,json}``.
"""

from conftest import emit

from repro.bench.experiments import exp_filter_probe


def test_filter_probe_report(benchmark):
    report = benchmark.pedantic(exp_filter_probe.run, rounds=1, iterations=1)
    emit(report)
    summary = report.summary
    # The acceptance bars of the probe-engine overhaul, measured
    # same-run: >= 2x batched throughput on the Bloom and LOUDS-SuRF
    # paths (the experiment itself asserts batch verdicts == scalar).
    assert summary["probe_speedup_bloom"] >= 2.0
    assert summary["probe_speedup_surf_louds"] >= 2.0
    assert summary["probe_speedup_surf_trie"] > 1.0
    assert summary["attack_extracted_keys"] > 0
