"""Figure 6 — sensitivity to dataset size.

Idealized attacks against progressively larger datasets (the paper uses
c*10M keys for c in 1..5; we use c*10k) with the *same* FindFPK candidate
set, so any difference is attributable to the datastore size alone.  The
paper's finding: prefix siphoning extracts ~4x more keys from the 5x
larger dataset — the attack gets *more* effective as the LSM-tree's
dataset grows.
"""

from __future__ import annotations

from repro.bench.harness import (
    correctness,
    run_idealized_attack,
    surf_environment,
    surf_strategy,
)
from repro.bench.report import ExperimentReport, downsample

PAPER_CLAIM = ("Keys extracted grows with dataset size: ~100 keys at 10M "
               "keys vs ~400 at 50M — larger datasets are *more* exposed")
SCALE_NOTE = ("c*10k keys for c in 1..5 (paper: c*10M); same 20k-candidate "
              "set for every size")


def run(base_keys: int = 10_000, steps: int = 5,
        candidates: int = 20_000, seed: int = 0) -> ExperimentReport:
    """Attack c*base_keys datasets with a shared candidate set."""
    rows = []
    series = {}
    for c in range(1, steps + 1):
        env = surf_environment(num_keys=c * base_keys, seed=seed)
        # Identical strategy seed => identical candidate keys across sizes.
        attack = run_idealized_attack(env, surf_strategy(env, seed=seed + 77),
                                      num_candidates=candidates)
        ok, total = correctness(env, attack.result)
        rows.append({
            "dataset_keys": c * base_keys,
            "keys_extracted": total,
            "correct": ok,
            "false_positives_found": len(attack.result.prefixes_identified),
            "total_queries": attack.result.total_queries,
        })
        series[f"{c * base_keys}keys(queries,keys)"] = downsample(
            attack.result.progress, 10)
    growth = (rows[-1]["keys_extracted"] / rows[0]["keys_extracted"]
              if rows[0]["keys_extracted"] else float("inf"))
    return ExperimentReport(
        experiment="fig6",
        title="Keys extracted vs dataset size (idealized, SuRF-Real)",
        paper_claim=PAPER_CLAIM,
        scale_note=SCALE_NOTE,
        rows=rows,
        series=series,
        summary={"extraction_growth_smallest_to_largest": growth},
    )
