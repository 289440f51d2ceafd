"""Table 1 — distribution of query response times.

The attacker's preliminary phase issues many ``get()``s for random keys
and buckets the response times at 5 us granularity.  The paper observes an
extremely skewed distribution (88.3% in 5-10 us, 2.7% at >= 25 us) whose
high tail is the filter-positive/I/O mode.
"""

from __future__ import annotations

from repro.bench.harness import surf_environment
from repro.bench.report import ExperimentReport
from repro.core.learning import learn_cutoff
from repro.workloads.datasets import ATTACKER_USER

PAPER_CLAIM = ("Bimodal distribution: <5us 0.77%, 5-10us 88.3%, 10-15us 7.65%, "
               "15-20us 0.53%, 20-25us 0.05%, >=25us 2.7%; cutoff at 25us "
               "separates negative from positive keys")
SCALE_NOTE = ("50k SHA1 40-bit keys (paper: 50M 64-bit), simulated NVMe + "
              "page cache; >=25us mass tracks the filter FPR, which is "
              "data-dependent")


def run(num_keys: int = 50_000, samples: int = 30_000,
        seed: int = 0) -> ExperimentReport:
    """Build the environment, run the learning phase, report the buckets."""
    env = surf_environment(num_keys=num_keys, seed=seed)
    learning = learn_cutoff(env.service, ATTACKER_USER,
                            key_width=env.config.key_width,
                            num_samples=samples, seed=seed,
                            background=env.background)
    report = ExperimentReport(
        experiment="table1",
        title="Distribution of query response times",
        paper_claim=PAPER_CLAIM,
        scale_note=SCALE_NOTE,
        rows=learning.histogram.as_table(),
        summary={
            "derived_cutoff_us": learning.cutoff_us,
            "samples": samples,
            "slow_fraction": learning.positive_fraction(),
        },
    )
    return report
