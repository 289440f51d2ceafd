"""Figure 8 — idealized prefix siphoning against the prefix Bloom filter.

Stage 1 of the PBF attack detects the configured prefix length l by the
FP-rate bump random l-byte queries exhibit (section 7.2.1); stage 2
guesses random l-byte keys; every positive is either a *prefix false
positive* (a true prefix of a stored key, extendable) or an ordinary Bloom
false positive (extension is wasted).  The paper: 1M guesses yield 457
FPs, 46 keys extracted (matching the expected 45.4 prefix FPs), at 160M
queries/key — 20x worse than SuRF but still orders of magnitude better
than brute force.
"""

from __future__ import annotations

from repro.analysis.theory import analyze_pbf_attack
from repro.bench.report import ExperimentReport, downsample
from repro.core.oracle import IdealizedOracle
from repro.core.pbf_attack import PbfAttackStrategy
from repro.core.template import AttackConfig, PrefixSiphoningAttack
from repro.filters.prefix_bloom import PrefixBloomFilterBuilder
from repro.workloads.datasets import ATTACKER_USER, DatasetConfig, build_environment

PAPER_CLAIM = ("l detected by the FP-rate bump; 1M guesses -> 457 FPs -> 46 "
               "keys (expected prefix FPs: 45.4); 160M queries/key, 20x worse "
               "than SuRF, ~1000x better than brute force")
SCALE_NOTE = ("50k 32-bit keys, l = 24 bits, 18 bits/key, 50k guesses "
              "(paper: 50M 64-bit keys, l = 40 bits, 1M guesses)")


def run(num_keys: int = 50_000, key_width: int = 4, prefix_len: int = 3,
        candidates: int = 50_000, seed: int = 0) -> ExperimentReport:
    """Detect l, guess prefixes, extend — all via the idealized oracle."""
    env = build_environment(DatasetConfig(
        num_keys=num_keys, key_width=key_width, seed=seed,
        filter_builder=PrefixBloomFilterBuilder(prefix_len=prefix_len,
                                                bits_per_key=18.0),
    ))
    oracle = IdealizedOracle(env.service, ATTACKER_USER)
    strategy = PbfAttackStrategy(key_width=key_width, seed=seed + 3)
    scan = strategy.detect_prefix_length(oracle, min_len=2,
                                         max_len=key_width - 1,
                                         samples_per_length=4_000)
    attack = PrefixSiphoningAttack(oracle, strategy, AttackConfig(
        key_width=key_width, num_candidates=candidates,
        max_extension_queries=1 << 16,
    ))
    result = attack.run()
    stored = env.key_set
    correct = sum(1 for e in result.extracted if e.key in stored)
    expected = analyze_pbf_attack(num_keys, key_width, prefix_len,
                                  guesses=candidates, bloom_fpr=0.012)
    rows = scan.as_rows()
    return ExperimentReport(
        experiment="fig8",
        title="Idealized prefix siphoning against the PBF",
        paper_claim=PAPER_CLAIM,
        scale_note=SCALE_NOTE,
        rows=rows,
        series={"attack(queries,keys)": downsample(result.progress, 12),
                "q_per_key(queries,q/key)": downsample(
                    result.moving_queries_per_key(), 12)},
        summary={
            "detected_prefix_len": scan.detected,
            "true_prefix_len": prefix_len,
            "fps_found": len(result.prefixes_identified),
            "keys_extracted": result.num_extracted,
            "correct": correct,
            "expected_prefix_fps": expected.expected_prefix_fps,
            "queries_per_key": result.queries_per_key(),
            "wasted_queries": result.wasted_queries,
            "bruteforce_queries_per_key": expected.bruteforce_queries_per_key,
        },
    )
