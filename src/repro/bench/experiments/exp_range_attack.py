"""Extension — the range-query attack the paper anticipates (sections 5, 11).

The paper's attack uses only point queries and leaves range-query attacks
to future work, warning that proposed mitigations (separate point/range
filters; Rosetta) would not survive them.  This experiment runs our
range-descent instantiation and quantifies both warnings:

* against SuRF-Real, the descent *systematically enumerates* stored keys
  in lexicographic order — no lucky false positives needed — at a per-key
  cost comparable to the point attack's;
* against Rosetta, which completely blocks the point attack, the descent
  reads keys out almost for free, because Rosetta resolves ranges at full
  depth.
"""

from __future__ import annotations

from repro.bench.harness import (
    run_idealized_attack,
    surf_environment,
    surf_strategy,
)
from repro.bench.report import ExperimentReport, downsample
from repro.core.range_attack import (
    IdealizedRangeOracle,
    RangeAttackConfig,
    RangeDescentAttack,
)
from repro.filters.rosetta import RosettaFilterBuilder
from repro.workloads.datasets import ATTACKER_USER, DatasetConfig, build_environment

PAPER_CLAIM = ("(anticipated by sections 5 and 11) Range-query attacks "
               "exist: separate point/range filters and Rosetta do not "
               "block them")
SCALE_NOTE = ("SuRF-Real 100k 40-bit keys, 50-key target; Rosetta 50k 32-bit "
              "keys; point attack shown for comparison")


def run(num_keys: int = 100_000, target_keys: int = 50,
        seed: int = 0) -> ExperimentReport:
    """Range descent vs point attack on SuRF; range descent on Rosetta."""
    rows = []
    series = {}

    # --- SuRF-Real: range descent --------------------------------------
    env = surf_environment(num_keys=num_keys, key_width=5, seed=seed)
    oracle = IdealizedRangeOracle(env.service, ATTACKER_USER)
    descent = RangeDescentAttack(oracle, RangeAttackConfig(
        key_width=5, max_keys=target_keys, seed=seed + 1)).run()
    stored = env.key_set
    correct = sum(1 for k in descent.keys if k in stored)
    rows.append({
        "attack": "range descent vs SuRF-Real",
        "keys_extracted": len(descent.keys),
        "correct": correct,
        "queries_per_key": descent.queries_per_key(),
        "systematic": descent.keys == sorted(descent.keys),
    })
    series["surf(queries,keys)"] = downsample(descent.progress, 10)

    # --- SuRF-Real: the paper's point attack, same environment ----------
    point = run_idealized_attack(env, surf_strategy(env, seed=seed + 2),
                                 num_candidates=30_000)
    point_correct = sum(1 for e in point.result.extracted
                        if e.key in stored)
    rows.append({
        "attack": "point attack vs SuRF-Real",
        "keys_extracted": point.result.num_extracted,
        "correct": point_correct,
        "queries_per_key": point.result.queries_per_key(),
        "systematic": False,
    })

    # --- Rosetta: blocked for points, transparent for ranges ------------
    rosetta_env = build_environment(DatasetConfig(
        num_keys=max(num_keys // 2, 1), key_width=4, seed=seed,
        filter_builder=RosettaFilterBuilder(key_bytes=4,
                                            bits_per_key_per_level=8.0)))
    rosetta_oracle = IdealizedRangeOracle(rosetta_env.service, ATTACKER_USER)
    rosetta = RangeDescentAttack(rosetta_oracle, RangeAttackConfig(
        key_width=4, max_keys=target_keys, seed=seed + 3)).run()
    rosetta_stored = rosetta_env.key_set
    rosetta_correct = sum(1 for k in rosetta.keys if k in rosetta_stored)
    rows.append({
        "attack": "range descent vs Rosetta",
        "keys_extracted": len(rosetta.keys),
        "correct": rosetta_correct,
        "queries_per_key": rosetta.queries_per_key(),
        "systematic": rosetta.keys == sorted(rosetta.keys),
    })
    series["rosetta(queries,keys)"] = downsample(rosetta.progress, 10)

    return ExperimentReport(
        experiment="range-attack",
        title="Range-descent siphoning (anticipated range-query attack)",
        paper_claim=PAPER_CLAIM,
        scale_note=SCALE_NOTE,
        rows=rows,
        series=series,
        summary={
            "rosetta_defeated_by_ranges": len(rosetta.keys) >= target_keys // 2,
            "rosetta_queries_per_key": rosetta.queries_per_key(),
            "descent_enumerates_smallest_keys": descent.keys
            == sorted(descent.keys),
        },
    )
