"""Figure 5 — attack efficiency across key sets.

The average number of ``get()``s per extracted key as the attack
progresses, for three independent random key sets.  The paper's curves
converge to ~9M queries/key (~2^23), a 40992x improvement over brute
force, with 375-423 keys extracted per set — demonstrating the cost is a
property of the configuration, not of a particular key set.
"""

from __future__ import annotations

from repro.bench.harness import (
    correctness,
    run_idealized_attack,
    surf_environment,
    surf_strategy,
)
from repro.bench.report import ExperimentReport, downsample
from repro.core.bruteforce import expected_bruteforce_queries_per_key

PAPER_CLAIM = ("Queries/key converges to ~9M (~2^23) for all three 50M-key "
               "sets, 40992x better than brute force (2^38.4); 375-423 keys "
               "extracted per set")
SCALE_NOTE = ("Three 50k-key sets, 30k candidates each; expected convergence "
              "~2^15 queries/key vs 2^24.4 brute force")


def run(num_keys: int = 50_000, candidates: int = 30_000,
        num_seeds: int = 3) -> ExperimentReport:
    """Run the idealized attack on ``num_seeds`` independent key sets."""
    rows = []
    series = {}
    reduction = expected_bruteforce_queries_per_key(5, num_keys)
    for seed in range(num_seeds):
        env = surf_environment(num_keys=num_keys, seed=seed)
        attack = run_idealized_attack(env, surf_strategy(env, seed=seed + 10),
                                      num_candidates=candidates)
        ok, total = correctness(env, attack.result)
        qpk = attack.result.queries_per_key()
        rows.append({
            "key_set": f"seed {seed}",
            "keys_extracted": total,
            "correct": ok,
            "queries_per_key": qpk,
            "reduction_vs_bruteforce": reduction / qpk if total else 0.0,
        })
        series[f"seed{seed}(queries,q/key)"] = downsample(
            attack.result.moving_queries_per_key(), 12)
    return ExperimentReport(
        experiment="fig5",
        title="Attack efficiency: average gets per extracted key",
        paper_claim=PAPER_CLAIM,
        scale_note=SCALE_NOTE,
        rows=rows,
        series=series,
        summary={
            "bruteforce_queries_per_key": reduction,
        },
    )
