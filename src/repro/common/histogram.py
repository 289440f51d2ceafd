"""Fixed-width bucket histogram for response-time distributions.

The paper reports query response times in 5-microsecond buckets (Table 1)
and analyzes the resulting bimodal shape to pick a negative/positive cutoff
(section 5.3.1).  This histogram is the shared representation for both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.common.errors import ConfigError


@dataclass(frozen=True)
class Bucket:
    """One histogram bucket ``[low, high)`` with its sample count."""

    low: float
    high: float
    count: int

    @property
    def fraction_label(self) -> str:
        """Range label matching the paper's Table 1 formatting."""
        return f"{self.low:g} - {self.high:g}"


class Histogram:
    """Histogram over non-negative samples with fixed bucket width.

    Samples at or beyond ``overflow_at`` accumulate in a single overflow
    bucket, mirroring the paper's ``>= 25 us`` row.
    """

    def __init__(self, bucket_width: float, overflow_at: float) -> None:
        if bucket_width <= 0:
            raise ConfigError(f"bucket width must be positive, got {bucket_width}")
        # A float modulo here would reject valid widths (25.0 % 0.1 is
        # 0.0999...); test divisibility on the rounded bucket count instead,
        # with a tolerance scaled to the ratio's magnitude.
        ratio = overflow_at / bucket_width if overflow_at > 0 else 0.0
        num_buckets = round(ratio)
        if num_buckets < 1 or abs(ratio - num_buckets) > 1e-9 * max(1.0, ratio):
            raise ConfigError(
                f"overflow threshold {overflow_at} must be a positive multiple "
                f"of the bucket width {bucket_width}"
            )
        self.bucket_width = bucket_width
        self.overflow_at = overflow_at
        self._counts: List[int] = [0] * num_buckets
        self._overflow = 0
        self._total = 0

    def add(self, sample: float) -> None:
        """Record one sample (negative samples clamp to the first bucket)."""
        if sample >= self.overflow_at:
            self._overflow += 1
        else:
            # Clamp both ends: negatives go to the first bucket, and float
            # division of a sample just under the threshold may round up to
            # the bucket count (e.g. widths like 0.1 with no exact binary
            # representation).
            index = min(len(self._counts) - 1,
                        max(0, int(sample // self.bucket_width)))
            self._counts[index] += 1
        self._total += 1

    def extend(self, samples: Iterable[float]) -> None:
        """Record many samples."""
        for sample in samples:
            self.add(sample)

    @property
    def total(self) -> int:
        """Number of samples recorded."""
        return self._total

    def buckets(self) -> List[Bucket]:
        """All buckets low-to-high, the overflow bucket last."""
        out = [
            Bucket(i * self.bucket_width, (i + 1) * self.bucket_width, count)
            for i, count in enumerate(self._counts)
        ]
        out.append(Bucket(self.overflow_at, float("inf"), self._overflow))
        return out

    def percentages(self) -> List[Tuple[Bucket, float]]:
        """Buckets paired with their share of all samples, in percent."""
        if not self._total:
            return [(bucket, 0.0) for bucket in self.buckets()]
        return [(bucket, 100.0 * bucket.count / self._total) for bucket in self.buckets()]

    def as_table(self) -> List[Dict[str, object]]:
        """Rows shaped like the paper's Table 1."""
        rows: List[Dict[str, object]] = []
        for bucket, pct in self.percentages():
            if bucket.high == float("inf"):
                label = f">= {bucket.low:g}"
            elif bucket.low == 0:
                label = f"< {bucket.high:g}"
            else:
                label = bucket.fraction_label
            rows.append({"bucket": label, "count": bucket.count, "percent": pct})
        return rows


def derive_cutoff(samples: Sequence[float], bucket_width: float, overflow_at: float) -> float:
    """Pick a negative/positive latency cutoff from a bimodal sample set.

    Strategy (mirrors the attacker of section 5.3.1, who only sees the
    distribution's shape): find the dominant low-latency mode, then walk
    right until bucket counts have decayed to a negligible share of the mode
    and a gap or sustained low region separates it from the slow tail.  The
    cutoff is placed at the start of that separation.

    Raises :class:`ConfigError` when no samples are provided.
    """
    if not samples:
        raise ConfigError("cannot derive a cutoff from zero samples")
    hist = Histogram(bucket_width, overflow_at)
    hist.extend(samples)
    counts = [b.count for b in hist.buckets()[:-1]]
    peak_index = max(range(len(counts)), key=counts.__getitem__)
    peak = counts[peak_index]
    # Walk right from the fast mode until the bucket population falls below
    # 0.1% of the peak; everything beyond is attributed to the I/O mode.
    threshold = max(1.0, peak * 0.001)
    for i in range(peak_index + 1, len(counts)):
        if counts[i] < threshold:
            return i * bucket_width
    return overflow_at
