"""Table 2 — attack queries per stage.

Breakdown of the actual (timing) attack's queries across FindFPK, IdPrefix
and key extraction, plus the wasted queries spent futilely extending
misidentified prefixes.  The paper finds extraction dominating (~92%) with
IdPrefix negligible and ~8% wasted.
"""

from __future__ import annotations

from repro.bench.experiments.exp_fig3 import run_pair
from repro.bench.report import ExperimentReport

PAPER_CLAIM = ("Step 1 0.35%, step 2 0.0009%, step 3 91.68%, wasted 7.9% — "
               "extension dominates; waste comes from timing "
               "misclassification")
SCALE_NOTE = ("Same run as Figure 3; the actual attack's 4-query averaging "
              "makes step 1's share larger at this scale")


def run(num_keys: int = 20_000, candidates: int = 20_000,
        seed: int = 0) -> ExperimentReport:
    """Report the per-stage query breakdown of the actual attack."""
    actual, _, _ = run_pair(num_keys, candidates, seed)
    rows = actual.result.stage_table()
    return ExperimentReport(
        experiment="table2",
        title="Attack queries per stage",
        paper_claim=PAPER_CLAIM,
        scale_note=SCALE_NOTE,
        rows=rows,
        summary={
            "total_queries": actual.result.total_queries,
            "prefixes_discarded": actual.result.prefixes_discarded,
            "keys_extracted": actual.result.num_extracted,
        },
    )
