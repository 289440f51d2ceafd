"""The one runner: every registered experiment, run for the record.

One test per entry of ``ALL_EXPERIMENTS``: call ``module.run()`` with its
defaults (exactly what ``repro run <name>`` does), print the report and
the wall seconds, write ``results/<name>.{txt,json}``, then hold the
report to that experiment's entry in ``CLAIMS`` — the paper's qualitative
claim as assertions.  ``make bench`` runs them all, ``-k fig3`` one; a
report is a function of ``run()``'s arguments alone, so order and
selection do not matter (``make results-check`` holds them to that).
"""

import dataclasses
import json
import pathlib
import time

import pytest

from repro.bench.experiments import ALL_EXPERIMENTS
from repro.bench.report import ExperimentReport, format_report

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"


def emit(report: ExperimentReport) -> None:
    """Print the report and persist it as results/<experiment>.{txt,json}
    (the JSON twin is the machine-readable form for plotting)."""
    text = format_report(report)
    print()
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{report.experiment}.txt").write_text(text + "\n")
    payload = dataclasses.asdict(report)
    (RESULTS_DIR / f"{report.experiment}.json").write_text(
        json.dumps(payload, indent=2, default=str) + "\n")


def claim_table1(report):
    rows = {r["bucket"]: r["percent"] for r in report.rows}
    # Paper shape: the 5-10us bucket dominates (88.3%), the high tail is
    # the filter-positive/I/O mode.
    assert rows["5 - 10"] > 80.0
    assert rows[">= 25"] > 0.0
    assert report.summary["derived_cutoff_us"] >= 10.0


def claim_fig2(report):
    # Paper: >50% of false positives land above the cutoff; the cutoff
    # classifies nearly perfectly.
    assert report.summary["fp_fraction_above_cutoff"] > 0.5
    assert report.summary["classifier_tpr"] > 0.9
    assert report.summary["classifier_fpr"] < 0.01
    # The slow buckets are overwhelmingly false positives.
    slow = [r for r in report.rows if r["bucket_us"] == ">= 25"][0]
    assert slow["fp_percent_of_bucket"] > 90.0


def claim_fig3(report):
    actual, idealized = report.rows
    # Both attacks disclose real keys.
    assert actual["keys_extracted"] > 0
    assert actual["correct"] == actual["keys_extracted"]
    assert idealized["correct"] == idealized["keys_extracted"]
    # Paper: the idealized attack never misclassifies, so it extracts at
    # least as many keys as the timing attack (within noise).
    assert idealized["keys_extracted"] >= actual["keys_extracted"] - 2
    # Paper: the actual attack is slower in (simulated) real time because
    # it waits for page-cache evictions.
    assert report.summary["actual_vs_ideal_sim_time_ratio"] > 1.5


def claim_table2(report):
    rows = {r["stage"]: r for r in report.rows}
    # Paper shape: extension dominates (91.68%), IdPrefix is negligible
    # (0.0009%), FindFPK small.
    assert rows["extend"]["percent"] > 60.0
    assert rows["id_prefix"]["percent"] < 1.0
    assert rows["extend"]["queries"] > rows["find_fpk"]["queries"]
    assert report.summary["keys_extracted"] > 0


def claim_bruteforce(report):
    siphon, brute = report.rows
    # Paper: brute force with a multiple of the attack's budget extracts
    # nothing; the attack reduces the search space by orders of magnitude.
    assert siphon["keys_extracted"] > 0
    assert brute["keys_extracted"] == 0
    assert report.summary["search_space_reduction"] > 100.0


def claim_fig4(report):
    real, hash_ = report.rows
    # Paper: with 3x candidates the Hash attack extracts MORE keys...
    assert report.summary["hash_extracts_more"]
    # ...at a somewhat higher converged queries/key (12M vs 10M there).
    assert hash_["queries_per_key"] > real["queries_per_key"]
    assert hash_["queries_per_key"] < 10 * real["queries_per_key"]
    # The Hash curve peaks early: its first moving-average point is far
    # above its converged value.
    hash_curve = report.series["hash(queries,q/key)"]
    assert hash_curve[0][1] > 5 * hash_curve[-1][1]


def claim_fig5(report):
    # Paper: the per-key cost converges to a similar value for every key
    # set (it is a property of the configuration, not the keys), and each
    # run extracts a substantial number of keys.
    costs = [r["queries_per_key"] for r in report.rows]
    assert all(r["keys_extracted"] >= 10 for r in report.rows)
    assert all(r["correct"] == r["keys_extracted"] for r in report.rows)
    assert max(costs) < 2.5 * min(costs)
    # Orders of magnitude below brute force for every key set.
    assert all(r["reduction_vs_bruteforce"] > 100 for r in report.rows)


def claim_fig6(report):
    extracted = [r["keys_extracted"] for r in report.rows]
    # Paper: the attack extracts ~4x more keys from the 5x larger dataset
    # — growth must be substantial and (near-)monotone.
    assert extracted[-1] >= 2.5 * max(1, extracted[0])
    assert all(b >= a - 1 for a, b in zip(extracted, extracted[1:]))
    assert all(r["correct"] == r["keys_extracted"] for r in report.rows)


def claim_fig7(report):
    rows = {r["variant"]: r for r in report.rows}
    # Paper's counterintuitive core finding: the better-FPR variant
    # (SuRF-Real) leaks far more keys (420 vs 21 at paper scale).
    assert report.summary["real_extracts_more"]
    assert rows["surf-real"]["keys_extracted"] >= max(
        5, 4 * rows["surf-base"]["keys_extracted"])
    # SuRF-Base finds far more FPs but discards nearly all of them.
    assert rows["surf-base"]["fps_found"] > 10 * rows["surf-real"]["fps_found"]
    assert (rows["surf-base"]["prefixes_discarded"]
            > 0.9 * rows["surf-base"]["fps_found"])


def claim_fig8(report):
    # Section 7.2.1: the FP-rate bump identifies the configured l.
    assert report.summary["detected_prefix_len"] == report.summary[
        "true_prefix_len"]
    # Section 10.4: extraction matches the expected prefix-FP count...
    extracted = report.summary["keys_extracted"]
    expected = report.summary["expected_prefix_fps"]
    assert 0.6 * expected <= extracted <= 1.6 * expected
    assert report.summary["correct"] == extracted
    # ...with real waste from Bloom (non-prefix) false positives, yet
    # still far better than brute force.
    assert report.summary["wasted_queries"] > 0
    assert (report.summary["queries_per_key"]
            < report.summary["bruteforce_queries_per_key"] / 10)


def claim_theory(report):
    surf_paper = report.rows[0]
    pbf_paper = report.rows[1]
    ranged = report.rows[-1]
    # Paper 10.3.1: ~400 keys, ~9M queries/key, 40992x over brute force.
    assert 300 <= surf_paper["expected_extracted"] <= 500
    assert 6e6 <= surf_paper["queries_per_key"] <= 13e6
    assert 2e4 <= surf_paper["reduction_factor"] <= 9e4
    # Paper 10.4: 45.4 expected prefix FPs, ~160M queries/key.
    assert 40 <= pbf_paper["expected_extracted"] <= 50
    assert 1e8 <= pbf_paper["queries_per_key"] <= 2.5e8
    # The anticipated range attack: point-attack cost, whole-dataset reach.
    assert ranged["expected_extracted"] > 0.9 * 50_000_000
    assert ranged["queries_per_key"] < 3 * surf_paper["queries_per_key"]


def claim_mitigation(report):
    rows = {r["mitigation"]: r for r in report.rows}
    # Split filters: the point attack collapses at ~2x filter memory...
    assert report.summary["split_blocks_point_attack"]
    split = rows["split point/range filters (point attack)"]
    assert split["filter_bits_per_key"] > 25  # bloom + surf
    # ...but the range-descent attack extracts keys anyway (section 11's
    # caveat, quantified).
    assert report.summary["split_falls_to_range_attack"]
    # Rosetta: the attack collapses (its FPs share no prefixes).
    assert report.summary["rosetta_blocks_extraction"]
    # ...at a documented memory cost far above SuRF's ~20 bits/key.
    assert rows["rosetta filter"]["filter_bits_per_key"] > 100
    # Response hiding: no full keys, but prefixes still leak (section 5.1).
    assert report.summary["hiding_blocks_extraction"]
    assert report.summary["prefixes_still_leaked_with_hiding"] > 0


def claim_ablation_backend(report):
    assert report.summary["backends_agree_on_all_queries"]


def claim_ablation_cutoff(report):
    rows = {r["cutoff_us"]: r for r in report.rows}
    # The derived cutoff sits on a wide near-perfect plateau...
    derived = report.summary["derived_cutoff_us"]
    assert rows[derived]["accuracy"] > 0.99
    plateau = [r for c, r in rows.items() if 15.0 <= c <= 25.0]
    assert all(r["accuracy"] > 0.99 for r in plateau)
    # ...while a cutoff inside the fast mode floods with false positives.
    assert rows[5.0]["false_positive_rate"] > 0.5


def claim_ablation_margin(report):
    # The channel is wide open at NVMe latencies...
    assert report.summary["detection_at_nvme_20us"] > 0.9
    # ...and must close once storage reads hide inside the CPU noise.
    assert report.summary["channel_closes"]
    rates = [r["fp_detection_rate"] for r in report.rows]
    assert rates[0] >= rates[-1]


def claim_ablation_compaction(report):
    # Tree shape is not a defense: both styles leak the same keys.
    assert report.summary["same_keys_leak"]
    rows = {r["compaction"]: r for r in report.rows}
    assert rows["leveled"]["correct"] == rows["leveled"]["keys_extracted"]
    assert rows["tiered"]["correct"] == rows["tiered"]["keys_extracted"]


def claim_range_attack(report):
    rows = {r["attack"]: r for r in report.rows}
    descent = rows["range descent vs SuRF-Real"]
    rosetta = rows["range descent vs Rosetta"]
    # Systematic enumeration of real keys, in lexicographic order.
    assert descent["keys_extracted"] == descent["correct"] > 0
    assert descent["systematic"]
    # Section 11's warning realized: Rosetta blocks the point attack but
    # surrenders keys through its range interface, nearly for free.
    assert report.summary["rosetta_defeated_by_ranges"]
    assert rosetta["queries_per_key"] < descent["queries_per_key"] / 10


def claim_ratelimit(report):
    # Section 11: the side channel is intact (same keys extracted)...
    assert report.summary["extraction_unaffected"]
    # ...but the attack's duration balloons with the rate cap.
    assert report.summary["slowdown_at_1000rps"] > 10.0


def claim_network(report):
    rows = {r["network"]: r for r in report.rows}
    # Section 4's assumption holds at LAN/datacenter grade noise: the
    # 4-query average detects false positives essentially perfectly.
    assert rows["lan"]["fp_detection_rate"] > 0.9
    assert rows["datacenter"]["fp_detection_rate"] > 0.9
    # The learning phase correctly normalizes out the RTT baseline.
    assert rows["wan"]["baseline_learned_us"] > 0.9 * rows["wan"]["rtt_us"]
    # False alarms stay rare even across the WAN.
    assert rows["wan"]["false_alarm_rate"] < 0.05


def claim_server(report):
    rows = {r["connections"]: r for r in report.rows}
    # The concurrency guarantee: more connections never change the
    # attack's *outcome* — same extracted keys on every pool size.
    assert report.summary["identical_key_sets"]
    assert report.summary["keys_extracted"] >= 1
    # Section 9's point: with network latency in the loop, concurrent
    # connections hide round trips — wall-clock improves 1 -> 4.  The
    # margin absorbs scheduler noise; the measured effect is ~1.6x.
    assert rows[4]["wall_s"] < rows[1]["wall_s"] * 0.85
    # Latency hiding, not extra querying: the parallel run costs at most
    # a few percent more wire requests (chunked extension overshoot).
    assert rows[4]["wire_requests"] < rows[1]["wire_requests"] * 1.1


def claim_skew(report):
    # Section 8's predictions: longer identified prefixes and cheaper
    # extension under skew — uniform keys are the attack's worst case.
    assert report.summary["skew_longer_prefixes"]
    assert report.summary["skew_cheaper_per_key"]
    assert report.summary["per_key_cost_ratio"] > 3.0


def claim_fine_timing(report):
    coarse, fine = report.rows
    # The footnote's channel works: full keys extracted with no waits.
    assert report.summary["fine_extracts_keys"]
    assert fine["correct"] == fine["keys_extracted"]
    # It trades more queries for a large real-time speedup.
    assert fine["total_queries"] > coarse["total_queries"]
    assert report.summary["speedup_vs_coarse"] > 2.0


def claim_detector(report):
    # Every attack variant is flagged; benign traffic never is.
    assert report.summary["point_attack_flagged"]
    assert report.summary["range_attack_flagged"]
    assert not report.summary["benign_false_positive"]
    rows = {r["traffic"]: r for r in report.rows}
    # The signal separation is wide, not marginal.
    assert rows["point siphoning attack"]["miss_ratio"] > 0.95
    assert rows["benign 50/50 background load"]["miss_ratio"] < 0.6


def claim_defense(report):
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
    # Measurable extraction-rate degradation with bounded benign
    # collateral (full scale only: tiny attacks are all noise).
    assert summary["off_keys_extracted"] >= 1
    # Throttle: same side channel, exploded simulated duration.
    assert summary["throttle_time_rate_ratio"] < 0.5
    # Noise: the timing channel drowns — keys per query collapse.
    assert summary["noise_query_rate_ratio"] < 0.5
    # Benign collateral is bounded: zipf throughput under an armed
    # defense stays within 2.5x of the undefended run.
    assert summary["throttle_benign_rps_ratio"] > 0.4
    assert summary["noise_benign_rps_ratio"] > 0.4


def claim_mixed_workload(report):
    summary = report.summary
    assert summary["no_leaked_pins"]
    assert summary["background_compactions"] > 0
    # Extraction needs the full candidate pool to find false-positive
    # prefixes (tier-1's small run proves only the machinery).
    assert summary["attack_extracted"] > 0
    assert summary["attack_correct"] > 0
    # Inline compaction stalls in-flight reads (the shared clock advances
    # by whole merge passes mid-read); the background path must remove
    # those spikes from the tail.  The worst racing read is the robust
    # metric: mid-quantiles shift with thread interleaving, but a
    # silent-clock merge can never inflate any reader's delta.
    assert summary["sync_read_max_us"] > 2 * summary["background_read_max_us"]
    assert summary["sync_write_max_us"] > summary["background_write_max_us"]


# name -> its claim_<name> above; an experiment registered without one
# is a KeyError here, i.e. fails collection.
CLAIMS = {name: globals()["claim_" + name.replace("-", "_")]
          for name in ALL_EXPERIMENTS}


@pytest.mark.parametrize("name", ALL_EXPERIMENTS)
def test_experiment(name):
    started = time.perf_counter()
    report = ALL_EXPERIMENTS[name].run()
    elapsed = time.perf_counter() - started
    emit(report)
    print(f"  (ran in {elapsed:.1f}s)\n")
    CLAIMS[name](report)
