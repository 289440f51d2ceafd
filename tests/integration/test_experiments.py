"""Smoke tests of the experiment modules at reduced scale.

Each experiment must run end to end, produce its rows/series, and satisfy
the paper's qualitative claim at tiny scale.  ``make bench`` runs the full
scaled versions; these just guarantee the modules stay runnable.
"""

import pkgutil

from repro.bench import experiments
from repro.bench.experiments import (
    ALL_EXPERIMENTS,
    exp_ablation_backend,
    exp_bruteforce,
    exp_defense,
    exp_fig2,
    exp_fig3,
    exp_fig6,
    exp_mitigation,
    exp_mixed_workload,
    exp_network,
    exp_table1,
    exp_theory,
)
from repro.bench.report import ExperimentReport, format_report


def test_registry_complete():
    """Every ``exp_*`` module on disk is registered, and nothing else is."""
    on_disk = {info.name for info in pkgutil.iter_modules(experiments.__path__)
               if info.name.startswith("exp_")}
    registered = {module.__name__.rpartition(".")[2]
                  for module in ALL_EXPERIMENTS.values()}
    assert registered == on_disk
    assert len(registered) == len(ALL_EXPERIMENTS)  # one name per module


def _fresh_report(module, **kwargs) -> str:
    # run() was memoized until the reports became pure; drop any memo so
    # both arms below are real runs on whichever commit this executes.
    getattr(module.run, "cache_clear", lambda: None)()
    return format_report(module.run(**kwargs))


def test_report_independent_of_what_ran_before():
    """A report is a function of run()'s arguments, not of process history.

    Regression: ``surf_environment`` memoized a *mutable* environment
    (clock, page cache, RNG streams), so Table 1 after Figure 2 read a
    warmed cache and a moved clock and printed different buckets.
    """
    small = dict(num_keys=5000, samples=3000, seed=9)
    alone = _fresh_report(exp_table1, **small)
    exp_fig2.run(**small)
    assert _fresh_report(exp_table1, **small) == alone

    probes = dict(num_keys=5000, probes=300, seed=9)
    alone = _fresh_report(exp_network, **probes)
    exp_table1.run(**small)
    assert _fresh_report(exp_network, **probes) == alone


def test_theory_report():
    report = exp_theory.run()
    assert isinstance(report, ExperimentReport)
    assert len(report.rows) == 5
    text = format_report(report)
    assert "paper" in text


def test_table1_small():
    report = exp_table1.run(num_keys=5000, samples=3000, seed=9)
    assert sum(r["count"] for r in report.rows) == 3000
    fast = sum(r["percent"] for r in report.rows[:2])
    assert fast > 90


def test_fig3_pair_small():
    report = exp_fig3.run(num_keys=5000, candidates=5000, seed=9)
    assert len(report.rows) == 2
    for row in report.rows:
        assert row["correct"] == row["keys_extracted"]


def test_fig6_growth_small():
    report = exp_fig6.run(base_keys=2000, steps=2, candidates=5000, seed=9)
    assert len(report.rows) == 2
    assert (report.rows[1]["keys_extracted"]
            >= report.rows[0]["keys_extracted"])


def test_bruteforce_small():
    report = exp_bruteforce.run(num_keys=5000, candidates=5000,
                                budget_multiple=1.0, seed=9)
    siphon, brute = report.rows
    assert siphon["keys_extracted"] > 0
    assert brute["keys_extracted"] == 0


def test_mitigation_small():
    report = exp_mitigation.run(num_keys=4000, candidates=4000, seed=9)
    assert report.summary["rosetta_blocks_extraction"]
    assert report.summary["hiding_blocks_extraction"]
    assert report.summary["prefixes_still_leaked_with_hiding"] > 0


def test_backend_ablation_small():
    report = exp_ablation_backend.run(num_keys=2000, probes=2000, seed=9)
    assert report.summary["backends_agree_on_all_queries"]


def test_defense_small():
    report = exp_defense.run(
        num_keys=800, candidates=400, learn_samples=1_000, benign_clients=4,
        defense_benign_requests=600, attackers=2)
    summary = report.summary
    rows = {r["mode"]: r for r in report.rows}
    # Benign zipf traffic flows at every defense level and is never
    # flagged — misses from the 5% miss mix stay far below the detector
    # thresholds.
    for mode in ("off", "throttle", "noise"):
        assert rows[mode]["benign_ok"] > 0
    assert summary["benign_flagged"] == 0
    # The defense sees the fleet: every attacker user ends up flagged,
    # throttle escalates each one, noise injects perturbation.
    assert rows["throttle"]["flagged_users"] >= 2
    assert rows["throttle"]["throttle_escalations"] >= 2
    assert rows["throttle"]["attacker_stalled"] > 0
    assert rows["noise"]["noise_injections"] > 0


def test_mixed_workload_small():
    # Only the machinery is proven at this scale: reads raced against a
    # forced compact_all in both modes, a snapshot siphoned under churn.
    report = exp_mixed_workload.run(num_reads=2_000, batches=30,
                                    attack_keys=1_200)
    assert report.summary["no_leaked_pins"]
    assert report.summary["background_compactions"] > 0


def test_format_report_renders_series():
    report = ExperimentReport(
        experiment="x", title="t", paper_claim="c", scale_note="s",
        rows=[{"a": 1, "b": 2.5}],
        series={"curve": [(1, 2), (3, 4)]},
        summary={"k": "v"},
    )
    text = format_report(report)
    assert "curve" in text and "k: v" in text
