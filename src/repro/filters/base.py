"""Filter interfaces.

The LSM-tree consults one filter per SSTable before issuing I/O (paper
section 2.2).  Point filters answer ``may_contain``; range filters
additionally answer ``may_contain_range``.  Both obey the one-sided error
contract: a present key/non-empty range always answers True (no false
negatives); absent keys may answer True with probability ~FPR.

Concrete implementations: :class:`~repro.filters.bloom.BloomFilter`,
:class:`~repro.filters.prefix_bloom.PrefixBloomFilter`,
:class:`~repro.filters.surf.SuRF`,
:class:`~repro.filters.rosetta.RosettaFilter`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple


@dataclass
class FilterQueryStats:
    """Per-filter query counters.

    ``positives`` counts queries the filter passed.  The idealized attack
    of section 10.2.2 reads these "internal RocksDB debugging counters"
    instead of timing queries.
    """

    point_queries: int = 0
    positives: int = 0
    range_queries: int = 0
    range_positives: int = 0

    def record_point(self, passed: bool) -> None:
        """Record one point-query outcome."""
        self.point_queries += 1
        if passed:
            self.positives += 1

    def record_range(self, passed: bool) -> None:
        """Record one range-query outcome."""
        self.range_queries += 1
        if passed:
            self.range_positives += 1

    def record_points(self, verdicts: Sequence[bool]) -> None:
        """Record a batch of point-query outcomes (same totals as a loop)."""
        self.point_queries += len(verdicts)
        self.positives += sum(verdicts)

    def record_ranges(self, verdicts: Sequence[bool]) -> None:
        """Record a batch of range-query outcomes (same totals as a loop)."""
        self.range_queries += len(verdicts)
        self.range_positives += sum(verdicts)


class Filter(abc.ABC):
    """Approximate-membership filter over a set of byte-string keys."""

    #: Human-readable filter family name (reports, bench labels).
    name: str = "filter"

    def __init__(self) -> None:
        self.stats = FilterQueryStats()

    @abc.abstractmethod
    def _may_contain(self, key: bytes) -> bool:
        """Implementation hook for the point query."""

    def may_contain(self, key: bytes) -> bool:
        """Point query with one-sided error; updates :attr:`stats`."""
        passed = self._may_contain(key)
        self.stats.record_point(passed)
        return passed

    def _may_contain_many(self, keys: Sequence[bytes]) -> List[bool]:
        """Implementation hook for batched point queries.

        Must return, for every input order and multiplicity, exactly the
        verdicts a scalar ``_may_contain`` loop would — filters override
        this with vectorized or shared-prefix traversals, but the verdict
        vector is part of the contract, not an approximation of it.
        """
        may_contain = self._may_contain
        return [may_contain(key) for key in keys]

    def probe_many(self, keys: Sequence[bytes]) -> List[bool]:
        """Pure batched point probes: verdicts only, **no** stats update.

        The LSM probe engine uses this for its prepass, then replays the
        scalar control flow and records stats only for the probes that
        path actually consumes — so engine on/off leaves
        :attr:`stats` bit-identical.
        """
        return self._may_contain_many(list(keys))

    def may_contain_many(self, keys: Sequence[bytes]) -> List[bool]:
        """Batched point query; updates :attr:`stats` like a scalar loop."""
        verdicts = self._may_contain_many(list(keys))
        self.stats.record_points(verdicts)
        return verdicts

    @abc.abstractmethod
    def memory_bits(self) -> int:
        """Approximate in-memory size of the filter, in bits."""

    def bits_per_key(self, num_keys: int) -> float:
        """Space efficiency measure used throughout the paper."""
        return self.memory_bits() / num_keys if num_keys else 0.0


class RangeFilter(Filter):
    """Filter that also answers range-emptiness queries (section 2.3.1)."""

    @abc.abstractmethod
    def _may_contain_range(self, low: bytes, high: bytes) -> bool:
        """Implementation hook for the closed-range query ``[low, high]``."""

    def may_contain_range(self, low: bytes, high: bytes) -> bool:
        """Range query with one-sided error; updates :attr:`stats`."""
        passed = self._may_contain_range(low, high)
        self.stats.record_range(passed)
        return passed

    def _may_contain_range_many(
            self, ranges: Sequence[Tuple[bytes, bytes]]) -> List[bool]:
        """Implementation hook for batched range queries (scalar default)."""
        may_contain_range = self._may_contain_range
        return [may_contain_range(low, high) for low, high in ranges]

    def probe_range_many(
            self, ranges: Sequence[Tuple[bytes, bytes]]) -> List[bool]:
        """Pure batched range probes: verdicts only, no stats update."""
        return self._may_contain_range_many(list(ranges))

    def may_contain_range_many(
            self, ranges: Sequence[Tuple[bytes, bytes]]) -> List[bool]:
        """Batched range query; updates :attr:`stats` like a scalar loop."""
        verdicts = self._may_contain_range_many(list(ranges))
        self.stats.record_ranges(verdicts)
        return verdicts


class FilterBuilder(abc.ABC):
    """Factory building one filter per SSTable from its sorted key list.

    Mirrors RocksDB's ``FilterPolicy``: the LSM engine owns one builder and
    calls it at SSTable-construction time, so swapping the filter under an
    experiment is a one-argument change.
    """

    @abc.abstractmethod
    def build(self, sorted_keys: Sequence[bytes]) -> Filter:
        """Build a filter over ``sorted_keys`` (sorted, unique).

        The one build entry point: the table writer, recovery's filter
        rebuild and the split filter all call it.  Bloom-family builders
        set every bit through one vectorized kernel
        (:meth:`~repro.filters.bloom.BloomFilter.add_many`), byte-identical
        to a per-key insertion loop.
        """

    def build_block(self, sorted_keys: Sequence[bytes]
                    ) -> Tuple[Filter, bytes]:
        """:meth:`build`, plus the filter's filter-block bytes.

        The table writer's one call per table: the bytes are exactly
        ``serialize_filter`` of the filter.  A builder that holds what
        the block is written from during its build (SuRF's terminal
        list) overrides this to encode from it instead of reading the
        built filter back; either way :meth:`build` is called once.
        """
        from repro.filters.serialize import serialize_filter
        filt = self.build(sorted_keys)
        return filt, serialize_filter(filt)

    def build_batch(self, sorted_keys: Sequence[bytes]) -> Filter:
        """Alias of :meth:`build`, which nothing in the store calls.

        Kept only because ``benchmarks/e2e/trace.py`` spans it by name
        on this class; it goes when the tracer stops naming it.
        """
        return self.build(sorted_keys)

    @property
    @abc.abstractmethod
    def name(self) -> str:
        """Name of the filters this builder produces."""


def measure_fpr(filt: Filter, absent_keys: Iterable[bytes]) -> float:
    """Empirical false-positive rate over keys known to be absent.

    FPR = FP / (FP + NK) per section 2.3; the caller guarantees none of
    ``absent_keys`` is stored.
    """
    false_positives = 0
    total = 0
    for key in absent_keys:
        total += 1
        if filt.may_contain(key):
            false_positives += 1
    return false_positives / total if total else 0.0
