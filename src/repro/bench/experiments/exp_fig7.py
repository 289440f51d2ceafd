"""Figure 7 — SuRF-Real vs SuRF-Base (sensitivity to filter FPR).

The paper's counterintuitive finding: the *better* the filter (lower FPR),
the *more* keys the attack extracts.  SuRF-Real's stored suffix byte both
improves the FPR and hands the attacker one extra identified byte, pushing
many more prefixes past the extension-feasibility threshold: 420 keys
extracted vs 21 for SuRF-Base at similar queries/key.

At reproduction scale the feasibility threshold is one suffix byte
(prefixes >= 32 of 40 bits, the analogue of the paper's >= 40 of 64), and
the dataset is denser (200k keys) so pruned prefixes concentrate at 3
bytes: SuRF-Base identifies mostly 2-3 byte prefixes (discarded), while
SuRF-Real's extra byte makes 4-byte known prefixes common.
"""

from __future__ import annotations

from repro.bench.harness import (
    correctness,
    run_idealized_attack,
    surf_environment,
    surf_strategy,
)
from repro.bench.report import ExperimentReport, downsample

PAPER_CLAIM = ("Same dataset and candidate set: attack extracts 420 keys "
               "against SuRF-Real vs 21 against SuRF-Base at similar "
               "queries/key — better FPR makes the attack more effective")
SCALE_NOTE = ("200k 40-bit keys, 400k candidates, keep prefixes >= 32 bits "
              "(extension <= 256 queries)")


def run(num_keys: int = 200_000, candidates: int = 400_000,
        seed: int = 0) -> ExperimentReport:
    """Idealized attacks on Base vs Real over the same key set."""
    rows = []
    series = {}
    extracted = {}
    for variant in ("base", "real"):
        env = surf_environment(num_keys=num_keys, key_width=5,
                               variant=variant, suffix_bits=8, seed=seed)
        strategy = surf_strategy(env, variant=variant, suffix_bits=8,
                                 mode="truncate", seed=seed + 9)
        attack = run_idealized_attack(env, strategy,
                                      num_candidates=candidates,
                                      max_extension_queries=256)
        ok, total = correctness(env, attack.result)
        extracted[variant] = total
        rows.append({
            "variant": f"surf-{variant}",
            "fps_found": len(attack.result.prefixes_identified),
            "prefixes_discarded": attack.result.prefixes_discarded,
            "keys_extracted": total,
            "correct": ok,
            "total_queries": attack.result.total_queries,
        })
        series[f"{variant}(queries,keys)"] = downsample(
            attack.result.progress, 12)
    return ExperimentReport(
        experiment="fig7",
        title="SuRF-Real vs SuRF-Base: keys extracted at the same budget",
        paper_claim=PAPER_CLAIM,
        scale_note=SCALE_NOTE,
        rows=rows,
        series=series,
        summary={
            "real_extracts_more": extracted["real"] > extracted["base"],
            "real_keys": extracted["real"],
            "base_keys": extracted["base"],
        },
    )
