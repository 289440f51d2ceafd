"""Small-sample statistics for the e2e benchmark.

Everything the benchmark reports is a median plus an inter-quartile
spread; percentiles are only reported when the sample supports them
(choosing-metrics guide: "the highest percentile that has at least ten
samples beyond it").
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Optional, Sequence, Tuple

#: A percentile is only meaningful with this many samples beyond it.
MIN_SAMPLES_BEYOND = 10
#: A request is a *stall* when slower than this multiple of its op
#: type's median (the flush/compaction spikes a median hides).
STALL_FACTOR = 20.0


def percentile(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile, refused without ten samples beyond it."""
    if not 0.0 < pct < 100.0:
        raise ValueError(f"percentile must be in (0, 100), got {pct}")
    count = len(samples)
    beyond = count * min(pct, 100.0 - pct) / 100.0
    if beyond < MIN_SAMPLES_BEYOND:
        raise ValueError(
            f"p{pct:g} needs {MIN_SAMPLES_BEYOND} samples beyond it; "
            f"{count} samples leave only {beyond:.1f}")
    return sorted(samples)[math.ceil(count * pct / 100.0) - 1]


def percentile_or_none(samples: Sequence[float], pct: float
                       ) -> Optional[float]:
    """:func:`percentile`, or None when the sample cannot support it."""
    try:
        return percentile(samples, pct)
    except ValueError:
        return None


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them.

    One value has no spread: all three quartiles equal it.
    """
    if not values:
        raise ValueError("no values")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def summarize(values: Sequence[float]) -> Dict[str, object]:
    """Per-pass raw values with their median, quartiles and spread."""
    q1, q2, q3 = quartiles(values)
    return {"median": q2, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / q2 if q2 else 0.0,
            "raw": list(values)}


def stall_fraction(latencies_by_type: Dict[str, List[float]],
                   client_wall_us: float) -> float:
    """Share of the clients' measured wall (``client_wall_us``: the pass's
    wall times its closed-loop clients) spent inside requests slower than
    :data:`STALL_FACTOR` x their op type's median."""
    stalled = 0.0
    for samples in latencies_by_type.values():
        if samples:
            limit = STALL_FACTOR * statistics.median(samples)
            stalled += sum(s for s in samples if s > limit)
    return stalled / client_wall_us
