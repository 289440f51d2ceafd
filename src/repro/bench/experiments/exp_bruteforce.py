"""Section 10.2.2 — brute-force comparison.

The paper let a random-guessing attack run for 10x the prefix-siphoning
experiment's duration and it failed to find a single key.  Here the brute
force gets a multiple of the siphoning attack's *query* budget and the
closed-form expectation shows why it is hopeless: the expected guesses per
hit is |keyspace| / |dataset|, orders of magnitude above the attack's
queries/key.
"""

from __future__ import annotations

from repro.bench.harness import (
    run_idealized_attack,
    surf_environment,
    surf_strategy,
)
from repro.bench.report import ExperimentReport
from repro.core.bruteforce import (
    brute_force_attack,
    expected_bruteforce_queries_per_key,
)
from repro.workloads.datasets import ATTACKER_USER

PAPER_CLAIM = ("Brute force with 10x the attack's budget extracts zero keys; "
               "prefix siphoning reduces the search space by orders of "
               "magnitude (40992x at paper scale)")
SCALE_NOTE = ("40-bit keys, 50k stored: expected 22M brute-force guesses/key; "
              "brute force gets 2x the siphoning attack's queries")


def run(num_keys: int = 50_000, candidates: int = 30_000,
        budget_multiple: float = 2.0, seed: int = 0) -> ExperimentReport:
    """Run siphoning, then brute force with a multiple of its budget."""
    env = surf_environment(num_keys=num_keys, seed=seed)
    siphon = run_idealized_attack(env, surf_strategy(env, seed=seed + 1),
                                  num_candidates=candidates)
    budget = int(siphon.result.total_queries * budget_multiple)
    brute = brute_force_attack(env.service, ATTACKER_USER,
                               key_width=env.config.key_width,
                               max_queries=budget, seed=seed)
    siphon_qpk = siphon.result.queries_per_key()
    expected_bf = expected_bruteforce_queries_per_key(env.config.key_width,
                                                      num_keys)
    rows = [
        {
            "attack": "prefix siphoning (idealized)",
            "queries": siphon.result.total_queries,
            "keys_extracted": siphon.result.num_extracted,
            "queries_per_key": siphon_qpk,
        },
        {
            "attack": f"brute force ({budget_multiple:g}x budget)",
            "queries": brute.queries,
            "keys_extracted": brute.num_found,
            "queries_per_key": brute.queries_per_key(),
        },
    ]
    return ExperimentReport(
        experiment="bruteforce",
        title="Prefix siphoning vs brute-force guessing",
        paper_claim=PAPER_CLAIM,
        scale_note=SCALE_NOTE,
        rows=rows,
        summary={
            "expected_bruteforce_queries_per_key": expected_bf,
            "search_space_reduction": expected_bf / siphon_qpk
            if siphon.result.num_extracted else 0.0,
        },
    )
