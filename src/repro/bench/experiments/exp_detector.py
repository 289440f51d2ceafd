"""Extension — detecting prefix siphoning from the request stream.

The paper closes by urging practitioners to evaluate the security impact
of performance work; this experiment evaluates the *defender's* options:
a sliding-window detector over the signals an ACL-checking service
already logs (per-user miss ratio + prefix clustering of failed keys).
Measured: how many requests each attack variant gets to issue before its
user is flagged, and that benign traffic — including the paper's 50/50
background mix — is never flagged.
"""

from __future__ import annotations

from repro.bench.harness import surf_environment, surf_strategy
from repro.bench.report import ExperimentReport
from repro.common.rng import make_rng
from repro.core.oracle import IdealizedOracle
from repro.core.range_attack import (
    IdealizedRangeOracle,
    RangeAttackConfig,
    RangeDescentAttack,
)
from repro.core.template import AttackConfig, PrefixSiphoningAttack
from repro.system.detector import MonitoredService
from repro.workloads.datasets import ATTACKER_USER, OWNER_USER

PAPER_CLAIM = ("(defensive extension; the paper urges evaluating security "
               "impact) The attack's request stream is extremely anomalous: "
               "~100% misses, prefix-clustered failures")
SCALE_NOTE = ("10k keys; detector window 512, flag at miss>=0.98 or "
              "miss>=0.90 with clustered failures")


def run(num_keys: int = 10_000, seed: int = 0) -> ExperimentReport:
    """Run each traffic source against a monitored service."""
    rows = []

    # Point-query siphoning.
    env = surf_environment(num_keys=num_keys, key_width=5, seed=seed)
    monitored = MonitoredService(env.service)
    PrefixSiphoningAttack(
        IdealizedOracle(monitored, ATTACKER_USER),
        surf_strategy(env, seed=seed + 31),
        AttackConfig(key_width=5, num_candidates=6000)).run()
    verdict = monitored.detector.verdict(ATTACKER_USER)
    rows.append({
        "traffic": "point siphoning attack",
        "requests": verdict.requests_seen,
        "miss_ratio": verdict.miss_ratio,
        "lcp_excess_bytes": verdict.lcp_excess,
        "flagged": verdict.flagged,
    })

    # Range-descent siphoning.
    env2 = surf_environment(num_keys=num_keys, key_width=5, seed=seed + 1)
    monitored2 = MonitoredService(env2.service)
    RangeDescentAttack(
        IdealizedRangeOracle(monitored2, ATTACKER_USER),
        RangeAttackConfig(key_width=5, max_keys=5, max_queries=300_000,
                          seed=seed + 32)).run()
    verdict2 = monitored2.detector.verdict(ATTACKER_USER)
    rows.append({
        "traffic": "range-descent attack",
        "requests": verdict2.requests_seen,
        "miss_ratio": verdict2.miss_ratio,
        "lcp_excess_bytes": verdict2.lcp_excess,
        "flagged": verdict2.flagged,
    })

    # Benign mixes: the paper's 50/50 background load, and a pure reader.
    rng = make_rng(seed, "benign-traffic")
    monitored3 = MonitoredService(env.service)
    for i in range(2000):
        if i % 2 == 0:
            monitored3.get(OWNER_USER, env.keys[rng.randrange(num_keys)])
        else:
            monitored3.get(OWNER_USER, rng.random_bytes(5))
    verdict3 = monitored3.detector.verdict(OWNER_USER)
    rows.append({
        "traffic": "benign 50/50 background load",
        "requests": verdict3.requests_seen,
        "miss_ratio": verdict3.miss_ratio,
        "lcp_excess_bytes": verdict3.lcp_excess,
        "flagged": verdict3.flagged,
    })
    return ExperimentReport(
        experiment="detector",
        title="Detecting prefix siphoning from the request stream",
        paper_claim=PAPER_CLAIM,
        scale_note=SCALE_NOTE,
        rows=rows,
        summary={
            "point_attack_flagged": rows[0]["flagged"],
            "range_attack_flagged": rows[1]["flagged"],
            "benign_false_positive": rows[2]["flagged"],
        },
    )
