"""Prefix Bloom filter (PBF) — RocksDB's deployed range filter (section 7.1).

A PBF is a Bloom filter plus a fixed prefix length ``l``: inserting key
``k`` inserts both ``k`` and its ``l``-byte prefix into the Bloom filter.
Range queries are restricted to "all keys starting with alpha" for an
``l``-byte alpha and are answered by querying the Bloom filter for alpha.

This dual insertion is exactly what makes the PBF vulnerable: an ``l``-byte
*point* query for a true prefix of a stored key hits the prefix entry and
passes — the "prefix false positives" of section 7.2 — so a random-guessing
attacker who discovers ``l`` observes an FPR bump at that length.

The paper works with bit-granularity prefixes (l = 40 bits); all our keys
and symbols are bytes, so ``prefix_len`` here is in bytes (40 bits = 5
bytes at paper scale, 24 bits = 3 bytes at the default reproduction scale).

A table's PBF is built in one Bloom kernel call over all its entries
(:meth:`PrefixBloomFilter.add_many`) and probed through the Bloom
filter's fused loop; both match the per-key insertion and generator probe
kept as ``tests/reference/bloom_build.py``.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.common.errors import ConfigError
from repro.filters.base import FilterBuilder, RangeFilter
from repro.filters.bloom import BloomFilter, optimal_num_probes


class PrefixBloomFilter(RangeFilter):
    """Bloom filter storing keys and their fixed-length prefixes."""

    name = "prefix-bloom"

    def __init__(self, prefix_len: int, num_bits: int, num_probes: int,
                 whole_key_filtering: bool = True) -> None:
        """``whole_key_filtering=False`` reproduces the prefix-only PBF
        configuration of section 7.1 (lower memory, higher point FPR); the
        attack works against both.
        """
        super().__init__()
        if prefix_len <= 0:
            raise ConfigError(f"prefix length must be positive, got {prefix_len}")
        self.prefix_len = prefix_len
        self.whole_key_filtering = whole_key_filtering
        self._bloom = BloomFilter(num_bits, num_probes)
        self.num_keys = 0

    @classmethod
    def for_entries(cls, expected_entries: int, bits_per_key: float,
                    prefix_len: int, whole_key_filtering: bool = True
                    ) -> "PrefixBloomFilter":
        """Size the underlying Bloom filter for the total entry count.

        With whole-key filtering each key contributes up to two entries
        (key + prefix); ``bits_per_key`` is interpreted against *keys*, as
        RocksDB does, so the paper's "18 bits/key" configurations map
        directly.
        """
        num_bits = int(expected_entries * bits_per_key) or 64
        entries_per_key = 2 if whole_key_filtering else 1
        probes = optimal_num_probes(bits_per_key / entries_per_key)
        return cls(prefix_len, num_bits, probes, whole_key_filtering)

    def add(self, key: bytes) -> None:
        """Insert a key and its ``prefix_len``-byte prefix."""
        self.add_many((key,))

    def add_many(self, keys: Sequence[bytes]) -> None:
        """Insert every key and its ``prefix_len``-byte prefix in one
        Bloom kernel call.

        With whole-key filtering the entries are the keys, then the
        prefixes of the keys at least ``prefix_len`` long; prefix-only,
        each key's prefix, or the whole key when it is shorter (short keys
        must still be findable).  Entry and key counts are the per-key
        insertion's.
        """
        prefix_len = self.prefix_len
        if self.whole_key_filtering:
            entries = list(keys)
            entries += [key[:prefix_len] for key in keys
                        if len(key) >= prefix_len]
        else:
            entries = [key[:prefix_len] for key in keys]
        self._bloom.add_many(entries)
        self.num_keys += len(keys)

    def _may_contain(self, key: bytes) -> bool:
        if self.whole_key_filtering:
            return self._bloom.may_contain(key)
        # A key shorter than the prefix was inserted whole.
        return self._bloom.may_contain(key[: self.prefix_len])

    def _may_contain_many(self, keys: Sequence[bytes]) -> List[bool]:
        """Batched probes through the Bloom filter's vectorized path.

        Goes through the inner filter's *public* batch query so its stats
        advance by the same totals the scalar loop produces.
        """
        if self.whole_key_filtering:
            return self._bloom.may_contain_many(keys)
        prefix_len = self.prefix_len
        return self._bloom.may_contain_many(
            [key[:prefix_len] for key in keys])

    def _may_contain_range(self, low: bytes, high: bytes) -> bool:
        """Supported only for ranges within one ``l``-byte prefix.

        Ranges that span prefixes cannot be answered by a PBF; following
        RocksDB, the filter conservatively passes them (no I/O saved).
        """
        if (
            len(low) >= self.prefix_len
            and low[: self.prefix_len] == high[: self.prefix_len]
        ):
            return self._bloom.may_contain(low[: self.prefix_len])
        return True

    def _may_contain_range_many(
            self, ranges: Sequence[Tuple[bytes, bytes]]) -> List[bool]:
        """Batch the same-prefix probes; spanning ranges pass untouched.

        Only the ranges the scalar path would probe reach the Bloom
        filter, so inner stats totals stay identical.
        """
        prefix_len = self.prefix_len
        verdicts = [True] * len(ranges)
        positions: List[int] = []
        probes: List[bytes] = []
        for i, (low, high) in enumerate(ranges):
            if len(low) >= prefix_len and low[:prefix_len] == high[:prefix_len]:
                positions.append(i)
                probes.append(low[:prefix_len])
        if probes:
            for i, passed in zip(positions,
                                 self._bloom.may_contain_many(probes)):
                verdicts[i] = passed
        return verdicts

    def memory_bits(self) -> int:
        """Size of the underlying Bloom filter."""
        return self._bloom.memory_bits()

    @property
    def bloom(self) -> BloomFilter:
        """The underlying Bloom filter (serialization support)."""
        return self._bloom

    def restore(self, bloom: BloomFilter, num_keys: int) -> None:
        """Replace the Bloom filter (filter-block deserialization)."""
        self._bloom = bloom
        self.num_keys = num_keys


class PrefixBloomFilterBuilder(FilterBuilder):
    """Builds one PBF per SSTable (RocksDB ``prefix_extractor`` analogue),
    sized for the key count and filled by one :meth:`PrefixBloomFilter.add_many`."""

    def __init__(self, prefix_len: int, bits_per_key: float = 18.0,
                 whole_key_filtering: bool = True) -> None:
        if prefix_len <= 0:
            raise ConfigError(f"prefix length must be positive, got {prefix_len}")
        if bits_per_key <= 0:
            raise ConfigError(f"bits_per_key must be positive, got {bits_per_key}")
        self.prefix_len = prefix_len
        self.bits_per_key = bits_per_key
        self.whole_key_filtering = whole_key_filtering

    @property
    def name(self) -> str:
        return f"pbf(l={self.prefix_len}B,{self.bits_per_key:g}b/key)"

    def build(self, sorted_keys: Sequence[bytes]) -> PrefixBloomFilter:
        filt = PrefixBloomFilter.for_entries(
            len(sorted_keys), self.bits_per_key, self.prefix_len,
            self.whole_key_filtering,
        )
        filt.add_many(sorted_keys)
        return filt
