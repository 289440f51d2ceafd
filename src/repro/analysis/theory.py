"""Closed-form analysis of prefix siphoning (paper section 8).

The paper's full version derives the probability that FindFPK guesses an
*exploitable* key — a false positive whose shared prefix is long enough
that extending it to a full key is feasible — and from it the expected
number of extracted keys and the cost advantage over brute force.  This
module reproduces that analysis for uniformly random keys (the attack's
worst case) so the benches can print paper-scale expectations next to the
scaled measurements.

Model: n keys uniform over width-W byte strings.  A key's pruned-trie
depth is one past its longest common prefix (LCP) with the rest of the
dataset, so with ``P(LCP >= j) = 1 - (1 - 256**-j)**(n-1)`` the expected
number of leaves at depth d follows; a random query hits a depth-d leaf's
pruned path with probability ``256**-d``, scaled by the variant's
suffix-bit match probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List

from repro.common.errors import ConfigError
from repro.filters.surf.suffix import SurfVariant


def lcp_at_least(j: int, num_keys: int) -> float:
    """P(a key's max LCP with the rest of the dataset is >= j bytes)."""
    if j <= 0:
        return 1.0
    return -math.expm1((num_keys - 1) * math.log1p(-(256.0 ** -j)))


def expected_leaves_by_depth(num_keys: int, key_width: int) -> Dict[int, float]:
    """Expected number of pruned-trie leaves at each depth (bytes)."""
    if num_keys <= 0 or key_width <= 0:
        raise ConfigError("num_keys and key_width must be positive")
    out: Dict[int, float] = {}
    for depth in range(1, key_width + 1):
        if depth == key_width:
            # Depth capped at the key width (keys with very deep LCP).
            p = lcp_at_least(depth - 1, num_keys)
        else:
            p = lcp_at_least(depth - 1, num_keys) - lcp_at_least(depth, num_keys)
        if p > 1e-15:
            out[depth] = num_keys * p
    return out


def _suffix_match_probability(variant: SurfVariant, suffix_bits: int) -> float:
    if variant is SurfVariant.BASE:
        return 1.0
    return 2.0 ** -suffix_bits


def _identified_prefix_len(variant: SurfVariant, suffix_bits: int,
                           depth: int, key_width: int) -> int:
    if variant is SurfVariant.REAL:
        # The matched real-suffix bits extend the attacker's knowledge.
        return min(key_width, depth + suffix_bits // 8)
    return depth


@dataclass(frozen=True)
class SurfAttackAnalysis:
    """Expected behaviour of the SuRF attack at given parameters."""

    num_keys: int
    key_width: int
    variant: SurfVariant
    suffix_bits: int
    guesses: int
    max_extension_queries: int
    fpr: float
    exploitable_probability: float
    expected_fp_found: float
    expected_extracted: float
    expected_extension_queries: float
    expected_total_queries: float
    bruteforce_queries_per_key: float

    @property
    def queries_per_key(self) -> float:
        """Amortized attack cost."""
        if self.expected_extracted <= 0:
            return float("inf")
        return self.expected_total_queries / self.expected_extracted

    @property
    def reduction_factor(self) -> float:
        """How many times cheaper than brute force (paper: 40992x)."""
        qpk = self.queries_per_key
        if math.isinf(qpk):
            return 0.0
        return self.bruteforce_queries_per_key / qpk


def analyze_surf_attack(num_keys: int, key_width: int,
                        variant: SurfVariant = SurfVariant.REAL,
                        suffix_bits: int = 8,
                        guesses: int = 100_000,
                        max_extension_queries: int = 1 << 16
                        ) -> SurfAttackAnalysis:
    """Closed-form expectations for a SuRF prefix-siphoning run."""
    leaves = expected_leaves_by_depth(num_keys, key_width)
    match_p = _suffix_match_probability(variant, suffix_bits)
    hash_bits = suffix_bits if variant is SurfVariant.HASH else 0

    fpr = 0.0
    exploitable_p = 0.0
    extension_cost_weighted = 0.0
    for depth, count in leaves.items():
        hit_p = count * (256.0 ** -depth) * match_p
        fpr += hit_p
        known = _identified_prefix_len(variant, suffix_bits, depth, key_width)
        space = 256 ** (key_width - known)
        probes = max(1, space >> hash_bits)
        if probes <= max_extension_queries:
            exploitable_p += hit_p
            # Expected probes to find the key: uniform over the space, so
            # half of it on average for hits.
            extension_cost_weighted += hit_p * probes / 2.0
    expected_fp = guesses * fpr
    expected_extracted = guesses * exploitable_p
    expected_ext_queries = guesses * extension_cost_weighted
    total = guesses + expected_ext_queries  # IdPrefix is O(W) per FP: noise
    return SurfAttackAnalysis(
        num_keys=num_keys, key_width=key_width, variant=variant,
        suffix_bits=suffix_bits, guesses=guesses,
        max_extension_queries=max_extension_queries,
        fpr=fpr, exploitable_probability=exploitable_p,
        expected_fp_found=expected_fp,
        expected_extracted=expected_extracted,
        expected_extension_queries=expected_ext_queries,
        expected_total_queries=total,
        bruteforce_queries_per_key=(256.0 ** key_width) / num_keys,
    )


@dataclass(frozen=True)
class PbfAttackAnalysis:
    """Expected behaviour of the PBF attack (paper sections 7-8, 10.4)."""

    num_keys: int
    key_width: int
    prefix_len: int
    guesses: int
    bloom_fpr: float
    expected_prefix_fps: float
    expected_bloom_fps: float
    expected_extracted: float
    expected_total_queries: float
    bruteforce_queries_per_key: float

    @property
    def queries_per_key(self) -> float:
        """Amortized attack cost."""
        if self.expected_extracted <= 0:
            return float("inf")
        return self.expected_total_queries / self.expected_extracted

    @property
    def reduction_factor(self) -> float:
        """Advantage over brute force."""
        qpk = self.queries_per_key
        return 0.0 if math.isinf(qpk) else self.bruteforce_queries_per_key / qpk


def analyze_pbf_attack(num_keys: int, key_width: int, prefix_len: int,
                       guesses: int, bloom_fpr: float = 0.01
                       ) -> PbfAttackAnalysis:
    """Closed-form expectations for a PBF prefix-siphoning run.

    The paper's section 10.4 check: with 1M guesses against 50M keys and
    l = 40 bits, expected prefix false positives = 1M * 50M / 2**40 = 45.4,
    matching the 46 keys its attack extracted.
    """
    if not 0 < prefix_len < key_width:
        raise ConfigError("prefix_len must be inside the key width")
    prefix_space = 256.0 ** prefix_len
    distinct_prefixes = prefix_space * -math.expm1(-num_keys / prefix_space)
    prefix_fp_p = distinct_prefixes / prefix_space
    expected_prefix_fps = guesses * prefix_fp_p
    expected_bloom_fps = guesses * bloom_fpr
    suffix_space = 256 ** (key_width - prefix_len)
    # Prefix FPs find a key halfway through the suffix space on average;
    # Bloom FPs burn the whole space for nothing (the 20x gap of Fig 8).
    extension = (expected_prefix_fps * suffix_space / 2.0
                 + expected_bloom_fps * suffix_space)
    return PbfAttackAnalysis(
        num_keys=num_keys, key_width=key_width, prefix_len=prefix_len,
        guesses=guesses, bloom_fpr=bloom_fpr,
        expected_prefix_fps=expected_prefix_fps,
        expected_bloom_fps=expected_bloom_fps,
        expected_extracted=expected_prefix_fps,
        expected_total_queries=guesses + extension,
        bruteforce_queries_per_key=(256.0 ** key_width) / num_keys,
    )


def expected_internal_nodes_by_depth(num_keys: int, key_width: int
                                     ) -> Dict[int, float]:
    """Expected internal pruned-trie nodes per depth.

    A depth-d prefix is an internal node iff at least two keys share it
    (a lone key prunes into a leaf at d+1 <= its own depth); under the
    Poisson approximation with rate ``n / 256**d`` that probability is
    ``1 - e^-r (1 + r)``.
    """
    if num_keys <= 0 or key_width <= 0:
        raise ConfigError("num_keys and key_width must be positive")
    out: Dict[int, float] = {}
    for depth in range(key_width):
        slots = 256.0 ** depth
        rate = num_keys / slots
        p_internal = 1.0 - math.exp(-rate) * (1.0 + rate)
        nodes = slots * p_internal
        if nodes > 1e-9:
            out[depth] = nodes
    return out


@dataclass(frozen=True)
class RangeAttackAnalysis:
    """Expected behaviour of range-descent siphoning (exhaustive walk)."""

    num_keys: int
    key_width: int
    expected_descent_queries: float
    expected_extension_queries: float
    expected_extracted: float

    @property
    def queries_per_key(self) -> float:
        """Amortized cost per disclosed key."""
        if self.expected_extracted <= 0:
            return float("inf")
        return ((self.expected_descent_queries
                 + self.expected_extension_queries)
                / self.expected_extracted)


#: Point probes the descent spends verifying a flagged leaf
#: (``repro.core.range_attack.VERIFY_PROBES``).
_RANGE_VERIFY_PROBES = 4


def analyze_range_attack(num_keys: int, key_width: int,
                         max_extension_queries: int = 1 << 16
                         ) -> RangeAttackAnalysis:
    """Closed-form expectations for an exhaustive range-descent run
    against SuRF-Real with one suffix byte (the descent's target).

    Descent cost: each internal node pays one range test per symbol plus a
    singleton leaf-test; each leaf pays verification and an O(width)
    IdPrefix.  Extension cost mirrors the point attack's step 3 — half the
    (feasibility-filtered) suffix space per key — but *every* stored key
    is reached, not just the FindFPK lottery winners.
    """
    internal = expected_internal_nodes_by_depth(num_keys, key_width)
    leaves = expected_leaves_by_depth(num_keys, key_width)
    descent = sum(nodes * (256.0 + 1.0) for nodes in internal.values())
    descent += sum(count * (1.0 + _RANGE_VERIFY_PROBES + key_width)
                   for count in leaves.values())
    extension = 0.0
    extracted = 0.0
    for depth, count in leaves.items():
        known = _identified_prefix_len(SurfVariant.REAL, 8, depth, key_width)
        probes = 256 ** (key_width - known)
        if probes <= max_extension_queries:
            extension += count * probes / 2.0
            extracted += count
    return RangeAttackAnalysis(
        num_keys=num_keys, key_width=key_width,
        expected_descent_queries=descent,
        expected_extension_queries=extension,
        expected_extracted=extracted,
    )


def paper_scale_summary() -> List[Dict[str, object]]:
    """The paper's own operating points, from the closed forms.

    Rows for the headline claims: the SuRF attack on 50M 64-bit keys
    (section 10.3.1: ~9M queries/key, 40992x better than the 2**38.4-query
    brute force) and the PBF attack (section 10.4: 45.4 expected prefix
    FPs from 1M guesses, ~160M queries/key).
    """
    surf = analyze_surf_attack(num_keys=50_000_000, key_width=8,
                               variant=SurfVariant.REAL, suffix_bits=8,
                               guesses=10_000_000,
                               max_extension_queries=1 << 24)
    # The paper measured 457 false positives in 1M 40-bit guesses, of which
    # ~45 are prefix FPs; the remaining ~412 imply a Bloom FPR of ~4e-4 at
    # its 18 bits/key configuration.
    pbf = analyze_pbf_attack(num_keys=50_000_000, key_width=8, prefix_len=5,
                             guesses=1_000_000, bloom_fpr=4.12e-4)
    return [
        {
            "attack": "SuRF-Real (paper 10.2-10.3)",
            "expected_extracted": surf.expected_extracted,
            "queries_per_key": surf.queries_per_key,
            "bruteforce_queries_per_key": surf.bruteforce_queries_per_key,
            "reduction_factor": surf.reduction_factor,
        },
        {
            "attack": "PBF l=40b (paper 10.4)",
            "expected_extracted": pbf.expected_extracted,
            "queries_per_key": pbf.queries_per_key,
            "bruteforce_queries_per_key": pbf.bruteforce_queries_per_key,
            "reduction_factor": pbf.reduction_factor,
        },
    ]
