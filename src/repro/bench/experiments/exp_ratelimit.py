"""Extension — rate limiting as a mitigation (paper section 11).

"A system can rate limit user requests, thereby slowing down prefix
siphoning attacks.  This approach is viable only if the system is not
meant to handle a high rate of normal, benign requests."

The experiment runs the same idealized attack with and without a token
bucket in front of the service, then reports what the mitigation buys:
the extraction count is untouched (the side channel is intact) but the
simulated attack duration explodes in proportion to the rate cap.
"""

from __future__ import annotations

from repro.bench.report import ExperimentReport
from repro.core.oracle import IdealizedOracle
from repro.core.template import AttackConfig, PrefixSiphoningAttack
from repro.bench.harness import surf_environment, surf_strategy
from repro.system.ratelimit import RateLimitedService, RateLimitPolicy
from repro.workloads.datasets import ATTACKER_USER

PAPER_CLAIM = ("Rate limiting slows the attack down (it does not block it); "
               "viable only for systems without high benign request rates")
SCALE_NOTE = ("10k keys, 15k candidates; attack repeated at descending "
              "per-user rate caps")


def run(num_keys: int = 10_000, candidates: int = 15_000,
        seed: int = 0) -> ExperimentReport:
    """Attack the same store under different rate caps."""
    rows = []
    durations = {}
    for rate in (None, 10_000.0, 1_000.0):
        env = surf_environment(num_keys=num_keys, key_width=5, seed=seed)
        service = env.service
        if rate is not None:
            service = RateLimitedService(env.service,
                                         RateLimitPolicy(rate, burst=64))
        oracle = IdealizedOracle(service, ATTACKER_USER)
        attack = PrefixSiphoningAttack(
            oracle, surf_strategy(env, seed=seed + 4),
            AttackConfig(key_width=5, num_candidates=candidates))
        result = attack.run()
        label = "unlimited" if rate is None else f"{rate:g} req/s"
        durations[label] = result.sim_duration_us
        rows.append({
            "rate_cap": label,
            "keys_extracted": result.num_extracted,
            "total_queries": result.total_queries,
            "sim_duration_minutes": result.sim_duration_us / 6e7,
        })
    slowdown = (durations["1000 req/s"] / durations["unlimited"]
                if durations.get("unlimited") else float("inf"))
    return ExperimentReport(
        experiment="ratelimit",
        title="Rate limiting: slows the attack, does not stop it",
        paper_claim=PAPER_CLAIM,
        scale_note=SCALE_NOTE,
        rows=rows,
        summary={
            "extraction_unaffected": len({r["keys_extracted"]
                                          for r in rows}) == 1,
            "slowdown_at_1000rps": slowdown,
        },
    )
