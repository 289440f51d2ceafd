"""Figure 2 — response-time distribution broken down by key type.

The analyst's validation of the cutoff: the same random-key queries as
Table 1, but each labelled with the ground-truth filter decision (negative
vs false positive), available here from the engine's debug counters just
as the paper used RocksDB internals.  The paper finds the vast majority of
false positives at 25-35 us and >50% of all FPs above the 25 us cutoff,
making the shape-derived cutoff a good classifier.
"""

from __future__ import annotations

from typing import List

from repro.analysis.distribution import breakdown_by_type, classifier_quality
from repro.bench.harness import surf_environment
from repro.bench.report import ExperimentReport
from repro.common.histogram import derive_cutoff
from repro.common.rng import make_rng
from repro.core.learning import BUCKET_WIDTH_US, OVERFLOW_AT_US
from repro.workloads.datasets import ATTACKER_USER

PAPER_CLAIM = ("Most false-positive queries respond in 25-35us; >50% of all "
               "FPs land above the 25us cutoff, so the shape-derived cutoff "
               "is a good negative/positive distinguisher")
SCALE_NOTE = "Same environment as Table 1; labels from engine debug counters"


def run(num_keys: int = 50_000, samples: int = 30_000,
        seed: int = 0) -> ExperimentReport:
    """Measure, label, and bucket random-key response times."""
    env = surf_environment(num_keys=num_keys, seed=seed)
    rng = make_rng(seed, "fig2")
    times: List[float] = []
    labels: List[bool] = []
    for index in range(samples):
        key = rng.random_bytes(env.config.key_width)
        labels.append(env.db.filters_pass(key))
        _, elapsed = env.service.get_timed(ATTACKER_USER, key)
        times.append(elapsed)
        if (index + 1) % 256 == 0:
            env.background.run_for(env.background.eviction_wait_us())
    cutoff = derive_cutoff(times, BUCKET_WIDTH_US, OVERFLOW_AT_US)
    buckets = breakdown_by_type(times, labels, BUCKET_WIDTH_US, OVERFLOW_AT_US)
    rows = [
        {
            "bucket_us": b.label,
            "negatives": b.negatives,
            "false_positives": b.false_positives,
            "fp_percent_of_bucket": b.fp_percent,
        }
        for b in buckets
    ]
    quality = classifier_quality(times, labels, cutoff)
    total_fps = sum(b.false_positives for b in buckets)
    fps_above = sum(b.false_positives for b in buckets if b.low_us >= cutoff)
    return ExperimentReport(
        experiment="fig2",
        title="Breakdown of query response times by key type",
        paper_claim=PAPER_CLAIM,
        scale_note=SCALE_NOTE,
        rows=rows,
        summary={
            "cutoff_us": cutoff,
            "fp_fraction_above_cutoff": fps_above / total_fps if total_fps else 0.0,
            "classifier_tpr": quality["true_positive_rate"],
            "classifier_fpr": quality["false_positive_rate"],
        },
    )
