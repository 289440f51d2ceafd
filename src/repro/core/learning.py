"""Preliminary learning phase (paper section 5.3.1).

The attacker issues many ``get()`` requests for random keys, builds the
response-time distribution, and derives the cutoff separating the fast
(memory-only, filter-negative) mode from the slow (I/O, filter-positive)
mode.  Nothing here uses ground truth: the cutoff comes from the
distribution's shape alone, exactly as an external attacker would compute
it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.common.errors import LearningError
from repro.common.histogram import Histogram, derive_cutoff
from repro.common.rng import make_rng
from repro.core.results import STAGE_LEARNING, QueryCounter
from repro.storage.background import BackgroundLoad
from repro.system.service import KVService

#: Histogram bucket width — the paper's Table 1 uses 5 us buckets.
BUCKET_WIDTH_US = 5.0
#: Overflow bucket start — the paper's Table 1 groups everything >= 25 us.
OVERFLOW_AT_US = 25.0
#: Bucket width for the fine-grained (cached-positive) distribution.
FINE_BUCKET_WIDTH_US = 0.25
#: Learning samples between two cache churns under background load.
CHURN_EVERY = 256


@dataclass
class LearningResult:
    """Outcome of the preliminary phase.

    ``baseline_us`` is the network floor the attacker subtracts before
    analyzing the distribution: zero for a local attacker, approximately
    the minimum RTT for a remote one (threat model, section 4).  The
    ``cutoff_us`` is absolute (baseline already folded in).
    """

    cutoff_us: float
    histogram: Histogram
    samples: List[float]
    queries_used: int
    baseline_us: float = 0.0

    def positive_fraction(self) -> float:
        """Share of sampled queries classified slow by the derived cutoff."""
        if not self.samples:
            return 0.0
        slow = sum(1 for s in self.samples if s >= self.cutoff_us)
        return slow / len(self.samples)


def learn_cutoff(service: KVService, attacker_user: int, key_width: int,
                 num_samples: int = 10_000, seed: int = 0,
                 background: Optional[BackgroundLoad] = None,
                 counter: Optional[QueryCounter] = None) -> LearningResult:
    """Run the learning phase and derive the negative/positive cutoff.

    With ``background`` load, cache churn is injected every
    ``CHURN_EVERY`` samples so positive keys keep paying I/O during
    sampling (a fully warmed cache would collapse the distribution's
    slow mode and hide the signal).
    """
    if num_samples < 100:
        raise LearningError(
            f"at least 100 samples are needed to shape a distribution, "
            f"got {num_samples}"
        )
    rng = make_rng(seed, "learning")
    samples: List[float] = []
    if counter is not None:
        counter.stage = STAGE_LEARNING
    # Sampling runs in batches bounded by the churn period, so each batch
    # is one get_many_timed call (amortizing per-query Python overhead)
    # and cache churn still lands on exactly the same query indices as the
    # one-query-at-a-time loop did.  Key generation draws from the
    # learning RNG stream in the same order as before; the service-side
    # streams (cost jitter, device latency) are independent, so batching
    # does not shift any draw.
    position = 0
    while position < num_samples:
        batch_size = num_samples - position
        if background is not None:
            batch_size = min(CHURN_EVERY, batch_size)
        keys = [rng.random_bytes(key_width) for _ in range(batch_size)]
        if counter is not None:
            counter.charge(batch_size)
        timed = service.get_many_timed(attacker_user, keys)
        samples.extend(elapsed for _, elapsed in timed)
        position += batch_size
        if background is not None and position % CHURN_EVERY == 0:
            background.run_for(background.eviction_wait_us())
    # A remote attacker's observations are shifted by the network RTT
    # (section 4); when the whole distribution sits past the histogram
    # window, normalize by the observed floor (a robust low percentile)
    # before deriving the cutoff, then report the cutoff in absolute time.
    floor = sorted(samples)[max(0, len(samples) // 100 - 1)]
    baseline = floor if floor >= OVERFLOW_AT_US else 0.0
    shifted = [s - baseline for s in samples] if baseline else samples
    histogram = Histogram(BUCKET_WIDTH_US, OVERFLOW_AT_US)
    histogram.extend(shifted)
    cutoff = baseline + derive_cutoff(shifted, BUCKET_WIDTH_US, OVERFLOW_AT_US)
    return LearningResult(cutoff_us=cutoff, histogram=histogram,
                          samples=samples, queries_used=num_samples,
                          baseline_us=baseline)


def learn_fine_cutoff(service: KVService, attacker_user: int, key_width: int,
                      num_keys: int = 3_000, rounds: int = 12,
                      seed: int = 0,
                      counter: Optional[QueryCounter] = None
                      ) -> LearningResult:
    """Learning phase for the *fine-grained* attack (section 5.2 footnote).

    The paper's attack exploits the memory-vs-I/O gap and must wait for
    page-cache evictions between measurements.  Its section 5.2 footnote
    leaves a second channel to future work: "time differences between
    queries that read an in-memory SSTable residing in the OS page cache
    and those that do not, due to a filter miss".  That gap is tiny (a
    cached block read plus the in-block search), so single measurements
    drown in noise — but *per-key averages* over many back-to-back queries
    concentrate tightly, making the distribution of averages bimodal with
    a deep valley.

    This routine queries each sampled key once to warm the cache, then
    ``rounds`` more times, histograms the per-key averages at fine
    granularity, and derives the cached-positive/negative cutoff.  No
    eviction waits anywhere.
    """
    if num_keys < 100:
        raise LearningError(
            f"at least 100 sampled keys are needed, got {num_keys}"
        )
    if rounds < 2:
        raise LearningError("fine-grained averaging needs at least 2 rounds")
    rng = make_rng(seed, "fine-learning")
    if counter is not None:
        counter.stage = STAGE_LEARNING
    averages: List[float] = []
    for _ in range(num_keys):
        key = rng.random_bytes(key_width)
        if counter is not None:
            counter.charge(rounds + 1)
        # One warm query (pulls any covered block into the page cache)
        # plus ``rounds`` measurements, issued as a single batch; the warm
        # query's time is discarded exactly as the sequential loop did.
        timed = service.get_many_timed(attacker_user, [key] * (rounds + 1))
        total = sum(elapsed for _, elapsed in timed[1:])
        averages.append(total / rounds)
    histogram = Histogram(FINE_BUCKET_WIDTH_US, OVERFLOW_AT_US)
    histogram.extend(averages)
    cutoff = derive_cutoff(averages, FINE_BUCKET_WIDTH_US, OVERFLOW_AT_US)
    return LearningResult(cutoff_us=cutoff, histogram=histogram,
                          samples=averages,
                          queries_used=num_keys * (rounds + 1))
