"""Extension — remote attackers across network noise (threat model, §4).

The paper assumes the attacker observes microsecond-level timing
differences, citing Crosby et al. (~20 us resolution over the Internet,
~100 ns on a LAN) and datacenter co-location.  This experiment replays
the learning phase and the timing classification through network models
of increasing RTT/jitter and reports where the 4-query-average classifier
starts degrading — making the paper's feasibility assumption quantitative
for this reproduction's latency scales.
"""

from __future__ import annotations

from typing import List

from repro.bench.harness import surf_environment
from repro.bench.report import ExperimentReport
from repro.common.rng import make_rng
from repro.core.learning import learn_cutoff
from repro.core.oracle import TimingOracle
from repro.system.network import DATACENTER, LAN, LOCALHOST, WAN, remote_service
from repro.workloads.datasets import ATTACKER_USER

PAPER_CLAIM = ("Section 4: remote attackers can measure the needed "
               "microsecond differences (Crosby et al.; concurrency-based "
               "attacks); co-locating in the datacenter sharpens resolution")
SCALE_NOTE = ("10k keys; 4-query averages; jitter model per network preset "
              "(localhost/LAN/datacenter/WAN)")


def run(num_keys: int = 10_000, probes: int = 3_000,
        seed: int = 0) -> ExperimentReport:
    """Classification accuracy of the timing oracle per network preset."""
    env = surf_environment(num_keys=num_keys, key_width=5, seed=seed)
    rng = make_rng(seed, "network-probes")
    # Random keys are almost all negatives at this scale; salt the probe
    # set with known false positives (found via the debug oracle) so the
    # detection rate is measurable per preset.
    probe_keys: List[bytes] = [rng.random_bytes(5) for _ in range(probes)]
    found = 0
    while found < 40:
        key = rng.random_bytes(5)
        if env.db.filters_pass(key):
            probe_keys.append(key)
            found += 1
    rng.shuffle(probe_keys)
    truth = [env.db.filters_pass(p) for p in probe_keys]
    positives = sum(truth)

    rows = []
    for model in (LOCALHOST, LAN, DATACENTER, WAN):
        service = remote_service(env.service, model, seed=seed + 7)
        learning = learn_cutoff(service, ATTACKER_USER, 5,
                                num_samples=6_000, seed=seed,
                                background=env.background)
        oracle = TimingOracle(service, ATTACKER_USER,
                              cutoff_us=learning.cutoff_us, rounds=4,
                              background=env.background, wait_us=100_000.0)
        verdicts = oracle.classify(probe_keys)
        tp = sum(1 for v, t in zip(verdicts, truth) if v and t)
        fp = sum(1 for v, t in zip(verdicts, truth) if v and not t)
        rows.append({
            "network": model.name,
            "rtt_us": model.rtt_us,
            "jitter_us": model.jitter_us,
            "baseline_learned_us": learning.baseline_us,
            "fp_detection_rate": tp / positives if positives else 0.0,
            "false_alarm_rate": fp / (len(probe_keys) - positives),
        })
    return ExperimentReport(
        experiment="network",
        title="Remote attacker feasibility across network noise",
        paper_claim=PAPER_CLAIM,
        scale_note=SCALE_NOTE,
        rows=rows,
        summary={
            "lan_detection": rows[1]["fp_detection_rate"],
            "wan_detection": rows[3]["fp_detection_rate"],
        },
    )
