"""Rosetta range filter — the paper's non-vulnerable mitigation (section 11).

A Rosetta instance over keys of at most ``L`` bits keeps ``L`` Bloom
filters; inserting a key inserts its ``i``-bit prefix into the ``i``-th
filter for every ``i``.  Point queries probe only ``B_L`` — a plain Bloom
membership test whose false positives are hash collisions sharing *no
prefix structure* with stored keys.  That breaks characteristic C1 of the
paper's vulnerable-filter class, which is exactly why section 11 offers
Rosetta as a mitigation (at the cost of requiring fixed-width keys and more
memory).

Range queries decompose ``[low, high]`` into dyadic intervals and resolve
every positive probe down to the bottom level ("full doubting"), the
highest-accuracy mode of the Rosetta paper.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.common.errors import ConfigError
from repro.common.keys import key_to_int
from repro.filters.base import FilterBuilder, RangeFilter
from repro.filters.bloom import BloomFilter, optimal_num_probes


class RosettaFilter(RangeFilter):
    """L-level Bloom-filter stack over bit prefixes of fixed-width keys."""

    name = "rosetta"

    def __init__(self, key_bytes: int, expected_entries: int,
                 bits_per_key_per_level: float = 2.0) -> None:
        super().__init__()
        if key_bytes <= 0:
            raise ConfigError(f"key width must be positive, got {key_bytes}")
        if bits_per_key_per_level <= 0:
            raise ConfigError("bits per key per level must be positive")
        self.key_bytes = key_bytes
        self.key_bits = 8 * key_bytes
        num_bits = int(expected_entries * bits_per_key_per_level) or 64
        probes = optimal_num_probes(bits_per_key_per_level)
        self._levels: List[BloomFilter] = [
            BloomFilter(num_bits, probes) for _ in range(self.key_bits)
        ]
        self.num_keys = 0

    def add(self, key: bytes) -> None:
        """Insert a key: every bit-prefix goes into its level's filter."""
        self.add_many((key,))

    def add_many(self, keys: Sequence[bytes]) -> None:
        """Insert every key: one Bloom kernel call per level, over that
        level's encoded bit-prefixes of all the keys."""
        values = [self._check_width(key) for key in keys]
        for level, bloom in enumerate(self._levels, start=1):
            # ``_encode(level, value >> shift)``, its header hoisted.
            header = level.to_bytes(2, "big")
            width = (level + 7) // 8
            shift = self.key_bits - level
            bloom.add_many([header + (value >> shift).to_bytes(width, "big")
                            for value in values])
        self.num_keys += len(keys)

    def _may_contain(self, key: bytes) -> bool:
        # Point queries consult only the bottom level: no prefix
        # information leaks (the paper's section 11 observation).
        value = self._check_width(key)
        return self._levels[-1].may_contain(self._encode(self.key_bits, value))

    def _may_contain_many(self, keys: Sequence[bytes]) -> List[bool]:
        """Batch the bottom-level Bloom probes.

        A wrong-width key falls back to the scalar loop so the
        :class:`ConfigError` fires at the same key, after the same
        earlier probes, as it would scalar.
        """
        try:
            encoded = [self._encode(self.key_bits, self._check_width(key))
                       for key in keys]
        except ConfigError:
            return super()._may_contain_many(keys)
        return self._levels[-1].may_contain_many(encoded)

    def _may_contain_range(self, low: bytes, high: bytes) -> bool:
        lo = self._check_width(low)
        hi = self._check_width(high)
        if lo > hi:
            return False
        return self._probe(1, 0, lo, hi) or self._probe(1, 1, lo, hi)

    def _probe(self, level: int, prefix: int, lo: int, hi: int) -> bool:
        """Resolve the dyadic interval of ``prefix`` at ``level`` against
        ``[lo, hi]``, doubting positives down to the bottom level."""
        shift = self.key_bits - level
        first = prefix << shift
        last = first | ((1 << shift) - 1)
        if last < lo or first > hi:
            return False
        if not self._levels[level - 1].may_contain(self._encode(level, prefix)):
            return False
        if level == self.key_bits:
            return True
        return (
            self._probe(level + 1, prefix << 1, lo, hi)
            or self._probe(level + 1, (prefix << 1) | 1, lo, hi)
        )

    def memory_bits(self) -> int:
        """Total size across all levels — the mitigation's memory cost."""
        return sum(level.memory_bits() for level in self._levels)

    @property
    def levels(self) -> List[BloomFilter]:
        """Per-level Bloom filters (serialization support)."""
        return self._levels

    def restore_levels(self, levels: List[BloomFilter]) -> None:
        """Replace the level filters (filter-block deserialization)."""
        if len(levels) != self.key_bits:
            raise ConfigError("level count must equal the key bit width")
        self._levels = levels

    @staticmethod
    def _encode(level: int, prefix: int) -> bytes:
        return level.to_bytes(2, "big") + prefix.to_bytes(
            (max(1, level) + 7) // 8, "big"
        )

    def _check_width(self, key: bytes) -> int:
        if len(key) != self.key_bytes:
            raise ConfigError(
                f"Rosetta requires fixed {self.key_bytes}-byte keys, got "
                f"{len(key)} bytes (variable-length keys are unsupported, "
                f"as the paper's section 11 discusses)"
            )
        return key_to_int(key)


class RosettaFilterBuilder(FilterBuilder):
    """Builds one Rosetta per SSTable for fixed-width key workloads."""

    def __init__(self, key_bytes: int, bits_per_key_per_level: float = 2.0) -> None:
        if key_bytes <= 0:
            raise ConfigError(f"key width must be positive, got {key_bytes}")
        self.key_bytes = key_bytes
        self.bits_per_key_per_level = bits_per_key_per_level

    @property
    def name(self) -> str:
        return f"rosetta({self.key_bytes}B keys)"

    def build(self, sorted_keys: Sequence[bytes]) -> RosettaFilter:
        filt = RosettaFilter(self.key_bytes, len(sorted_keys),
                             self.bits_per_key_per_level)
        filt.add_many(sorted_keys)
        return filt
