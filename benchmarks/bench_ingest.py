"""Bench: parallel ingest engine (bulk_load / compact_all / put_many).

Writes ``results/BENCH_ingest.{txt,json}``.  ``REPRO_INGEST_SMOKE=1``
shrinks the datasets for the CI smoke step: the digest-equality
assertions (every worker count leaves the same device) still run, the
wall-clock bar does not (tiny inputs are all fixed overhead), and the
committed results file is left untouched.
"""

import os

from conftest import emit

from repro.bench.experiments import exp_ingest

SMOKE = bool(os.environ.get("REPRO_INGEST_SMOKE"))


def test_ingest_report(benchmark):
    if SMOKE:
        report = benchmark.pedantic(
            lambda: exp_ingest.run(num_keys=4_000, compact_keys=3_000,
                                   batch_keys=2_000),
            rounds=1, iterations=1)
    else:
        report = benchmark.pedantic(exp_ingest.run, rounds=1, iterations=1)
        emit(report)
    summary = report.summary
    assert summary["bulk_digests_all_identical"]
    assert summary["compact_engine_digests_identical"]
    if not SMOKE:
        # Group commit must pay for itself, measured same-run.
        assert summary["put_many_speedup_vs_loop"] > 1.0
