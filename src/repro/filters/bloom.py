"""Standard Bloom filter (the RocksDB default point filter).

Included both as the baseline non-range filter — against which prefix
siphoning does *not* apply, because a Bloom positive shares no structure
with stored keys — and as the building block of the prefix Bloom filter
and Rosetta.
"""

from __future__ import annotations

import math
from typing import List, Sequence

from repro.common.errors import ConfigError
from repro.filters.base import Filter, FilterBuilder
from repro.filters.bitarray import BitArray
from repro.filters.hashing import probe_indices

#: Below this batch size the numpy probe path costs more than it saves.
_BATCH_MIN = 16


def _batch_hashes_mod(np, keys: Sequence[bytes], num_bits: int):
    """``(h1 % m, h2 % m)`` per key, in input order.

    Vectorized FNV-1a: keys are grouped by length and each group's hash is
    folded one byte-column at a time, exactly mirroring the scalar
    ``double_hashes`` (uint64 wraparound matches FNV's mod-2**64
    arithmetic).  Scattering results back through the position index keeps
    the output aligned with the input order.
    """
    from repro.filters.hashing import _FNV_PRIME, fnv1a_64_init

    m = np.uint64(num_bits)
    prime = np.uint64(_FNV_PRIME)
    h1m = np.empty(len(keys), dtype=np.uint64)
    h2m = np.empty(len(keys), dtype=np.uint64)
    by_length = {}
    for pos, key in enumerate(keys):
        by_length.setdefault(len(key), []).append(pos)
    for length, positions in by_length.items():
        n = len(positions)
        h1 = np.full(n, fnv1a_64_init(0), dtype=np.uint64)
        h2 = np.full(n, fnv1a_64_init(1), dtype=np.uint64)
        if length:
            columns = np.frombuffer(
                b"".join(keys[pos] for pos in positions), dtype=np.uint8)
            columns = columns.reshape(n, length).astype(np.uint64)
            for col in range(length):
                byte = columns[:, col]
                h1 = (h1 ^ byte) * prime
                h2 = (h2 ^ byte) * prime
        h2 = h2 | np.uint64(1)
        where = np.asarray(positions, dtype=np.int64)
        h1m[where] = h1 % m
        h2m[where] = h2 % m
    return h1m, h2m


def optimal_num_probes(bits_per_key: float) -> int:
    """FPR-minimizing probe count k = ln(2) * bits/key, at least 1."""
    return max(1, round(math.log(2) * bits_per_key))


def theoretical_fpr(bits_per_key: float) -> float:
    """Classic Bloom FPR approximation (1 - e^{-k/(m/n)})^k at the
    optimal probe count."""
    if bits_per_key <= 0:
        return 1.0
    k = optimal_num_probes(bits_per_key)
    return (1.0 - math.exp(-k / bits_per_key)) ** k


class BloomFilter(Filter):
    """Dynamic Bloom filter with double hashing.

    ``num_bits`` is rounded up to at least 64 so tiny SSTables still get a
    functional filter.
    """

    name = "bloom"

    def __init__(self, num_bits: int, num_probes: int) -> None:
        super().__init__()
        if num_probes <= 0:
            raise ConfigError(f"num_probes must be positive, got {num_probes}")
        self._bits = BitArray(max(64, num_bits))
        self.num_probes = num_probes
        self.num_entries = 0

    @classmethod
    def for_entries(cls, expected_entries: int, bits_per_key: float) -> "BloomFilter":
        """Size a filter for ``expected_entries`` at ``bits_per_key``."""
        if expected_entries < 0:
            raise ConfigError("expected_entries must be non-negative")
        if bits_per_key <= 0:
            raise ConfigError(f"bits_per_key must be positive, got {bits_per_key}")
        num_bits = int(expected_entries * bits_per_key) or 64
        return cls(num_bits, optimal_num_probes(bits_per_key))

    def add(self, key: bytes) -> None:
        """Insert ``key``."""
        for index in probe_indices(key, self.num_probes, len(self._bits)):
            self._bits.set(index)
        self.num_entries += 1

    def _may_contain(self, key: bytes) -> bool:
        return all(
            self._bits.get(index)
            for index in probe_indices(key, self.num_probes, len(self._bits))
        )

    def _may_contain_many(self, keys: Sequence[bytes]) -> List[bool]:
        """Batched probes, hashing the whole key set at once.

        Bit-identical to the scalar loop: same decomposed probe-index
        arithmetic as :meth:`BloomFilterBuilder.build_batch`
        (``((h1 % m) + (i * (h2 % m)) % m) % m`` — the direct
        ``h1 + i*h2`` would wrap at 2**64 and diverge from the scalar
        path's arbitrary-precision ints).
        """
        if len(keys) < _BATCH_MIN:
            return super()._may_contain_many(keys)
        # Imported at first use: a store without Bloom filters (the SuRF
        # attacks) never pays numpy's import time and ~16 MB resident.
        import numpy as np
        num_bits = len(self._bits)
        m = np.uint64(num_bits)
        h1m, h2m = _batch_hashes_mod(np, keys, num_bits)
        buf = np.frombuffer(self._bits._buf, dtype=np.uint8)
        passed = np.ones(len(keys), dtype=bool)
        for i in range(self.num_probes):
            # i * h2m < num_probes * num_bits, far below 2**64.
            indices = (h1m + (np.uint64(i) * h2m) % m) % m
            bits = buf[(indices >> np.uint64(3)).astype(np.int64)]
            passed &= ((bits >> (indices & np.uint64(7)).astype(np.uint8))
                       & np.uint8(1)).astype(bool)
        return passed.tolist()

    def memory_bits(self) -> int:
        """Size of the bit array."""
        return self._bits.memory_bits()

    @property
    def bit_array(self) -> BitArray:
        """The underlying bit array (serialization support)."""
        return self._bits

    def restore_bits(self, bits: BitArray, num_entries: int) -> None:
        """Replace the bit payload (filter-block deserialization)."""
        if len(bits) != len(self._bits):
            raise ConfigError(
                f"bit payload of {len(bits)} bits does not match the "
                f"filter's {len(self._bits)}"
            )
        self._bits = bits
        self.num_entries = num_entries

    def fill_ratio(self) -> float:
        """Fraction of set bits — sanity metric for sizing tests."""
        return self._bits.count() / len(self._bits)


class BloomFilterBuilder(FilterBuilder):
    """Builds one Bloom filter per SSTable at a fixed bits/key budget."""

    def __init__(self, bits_per_key: float = 10.0) -> None:
        if bits_per_key <= 0:
            raise ConfigError(f"bits_per_key must be positive, got {bits_per_key}")
        self.bits_per_key = bits_per_key

    @property
    def name(self) -> str:
        return f"bloom({self.bits_per_key:g}b/key)"

    def build(self, sorted_keys: Sequence[bytes]) -> BloomFilter:
        filt = BloomFilter.for_entries(len(sorted_keys), self.bits_per_key)
        for key in sorted_keys:
            filt.add(key)
        return filt

    def build_batch(self, sorted_keys: Sequence[bytes]) -> BloomFilter:
        """Vectorized build, bit-identical to :meth:`build`.

        Hashes all keys at once with numpy (FNV-1a folded one byte-column
        at a time over keys grouped by length) and sets all probe bits
        with one scatter.  Falls back to the scalar path when the key
        count is too small to amortize the array setup.

        Bit-identity caveat: the scalar probe ``(h1 + i*h2) % m`` runs in
        arbitrary-precision Python ints, so the uint64 pipeline must
        decompose it as ``((h1 % m) + (i * (h2 % m)) % m) % m`` — the
        direct form would wrap ``h1 + i*h2`` at 2**64 and diverge.
        """
        if len(sorted_keys) < 32:
            return self.build(sorted_keys)
        import numpy as np  # at first use, as in ``_may_contain_many``

        filt = BloomFilter.for_entries(len(sorted_keys), self.bits_per_key)
        num_bits = len(filt.bit_array)
        m = np.uint64(num_bits)
        h1m, h2m = _batch_hashes_mod(np, sorted_keys, num_bits)
        indices = np.concatenate([
            # i * h2m < num_probes * num_bits, far below 2**64.
            (h1m + (np.uint64(i) * h2m) % m) % m
            for i in range(filt.num_probes)
        ])
        byte_index = (indices >> np.uint64(3)).astype(np.int64)
        bit_in_byte = (indices & np.uint64(7)).astype(np.uint8)
        values = np.left_shift(np.ones_like(bit_in_byte), bit_in_byte)
        buf = np.frombuffer(filt.bit_array._buf, dtype=np.uint8)
        np.bitwise_or.at(buf, byte_index, values)
        filt.num_entries = len(sorted_keys)
        return filt
