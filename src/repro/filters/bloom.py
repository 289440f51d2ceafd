"""Standard Bloom filter (the RocksDB default point filter).

Included both as the baseline non-range filter — against which prefix
siphoning does *not* apply, because a Bloom positive shares no structure
with stored keys — and as the building block of the prefix Bloom filter
and Rosetta.

Every Bloom-family filter sets its bits through one kernel,
:meth:`BloomFilter.add_many` (numpy FNV-1a over the whole entry list, one
boolean scatter, one ``packbits``), and answers a point probe through one
fused loop, :meth:`BloomFilter._may_contain` (both FNV states in a single
pass over the key, then direct byte tests).  Both give exactly the bits
and verdicts of the per-key loop over :func:`~repro.filters.hashing.probe_indices`
kept as ``tests/reference/bloom_build.py``.
"""

from __future__ import annotations

import math
from typing import List, Sequence

from repro.common.errors import ConfigError
from repro.filters.base import Filter, FilterBuilder
from repro.filters.bitarray import BitArray
from repro.filters.hashing import _FNV_PRIME, _MASK64, fnv1a_64_init

#: Below this batch size the numpy probe path costs more than the fused
#: loop: measured on CPython 3.11, the crossover is ~16 keys at 16 bytes,
#: ~24 at 5 bytes and ~32-40 at 3 bytes (CHANGES.md has the table).
_BATCH_MIN = 24

#: The two FNV-1a start states of :func:`~repro.filters.hashing.double_hashes`.
_H1_INIT = fnv1a_64_init(0)
_H2_INIT = fnv1a_64_init(1)


def _batch_hashes_mod(np, keys: Sequence[bytes], num_bits: int):
    """``(h1 % m, h2 % m)`` per key, in input order.

    Vectorized FNV-1a: keys are stably sorted by length, joined into one
    byte buffer, and each equal-length group's hash is folded one
    byte-column at a time, exactly mirroring the scalar ``double_hashes``
    (uint64 wraparound matches FNV's mod-2**64 arithmetic).  Scattering
    results back through the sort order keeps the output aligned with the
    input order.
    """
    n = len(keys)
    m = np.uint64(num_bits)
    prime = np.uint64(_FNV_PRIME)
    h1m = np.empty(n, dtype=np.uint64)
    h2m = np.empty(n, dtype=np.uint64)
    if not n:
        return h1m, h2m
    lengths = np.fromiter(map(len, keys), dtype=np.int64, count=n)
    order = np.argsort(lengths, kind="stable")
    lengths = lengths[order]
    blob = np.frombuffer(b"".join(map(keys.__getitem__, order.tolist())),
                         dtype=np.uint8)
    bounds = (np.flatnonzero(np.diff(lengths)) + 1).tolist()
    offset = 0
    for start, end in zip([0] + bounds, bounds + [n]):
        count = end - start
        length = int(lengths[start])
        h1 = np.full(count, _H1_INIT, dtype=np.uint64)
        h2 = np.full(count, _H2_INIT, dtype=np.uint64)
        if length:
            columns = blob[offset:offset + count * length]
            columns = columns.reshape(count, length).astype(np.uint64)
            offset += count * length
            for col in range(length):
                byte = columns[:, col]
                h1 ^= byte
                h1 *= prime
                h2 ^= byte
                h2 *= prime
        h2 |= np.uint64(1)
        where = order[start:end]
        h1m[where] = h1 % m
        h2m[where] = h2 % m
    return h1m, h2m


def _probe_indices(np, keys: Sequence[bytes], num_bits: int,
                   num_probes: int):
    """Every key's probe positions: row ``i`` holds ``(h1 + i*h2) % m``.

    The scalar probe runs in arbitrary-precision ints, so the uint64
    pipeline decomposes it as ``((h1 % m) + (i * (h2 % m)) % m) % m``:
    the direct ``h1 + i*h2`` would wrap at 2**64 and diverge.
    """
    m = np.uint64(num_bits)
    h1m, h2m = _batch_hashes_mod(np, keys, num_bits)
    steps = np.arange(num_probes, dtype=np.uint64)[:, None]
    # i * h2m < num_probes * num_bits, far below 2**64.
    return (h1m + steps * h2m % m) % m


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
        self.add_many((key,))

    def add_many(self, keys: Sequence[bytes]) -> None:
        """Insert every key of ``keys``: the build kernel.

        Hashes the whole list at once (:func:`_batch_hashes_mod`), marks
        every probe position in one boolean scatter and packs it LSB-first
        into the bit layout :class:`BitArray` defines, ORed into the bits
        already set.  Duplicates count as entries, as an ``add`` loop
        counts them.
        """
        if keys:
            # Imported at first use: a store without Bloom filters (the
            # SuRF attacks) never pays numpy's import time and ~16 MB
            # resident.
            import numpy as np
            buf = self._bits._buf
            marked = np.zeros(8 * len(buf), dtype=bool)
            marked[_probe_indices(np, keys, len(self._bits),
                                  self.num_probes)] = True
            bits = np.frombuffer(buf, dtype=np.uint8)
            bits |= np.packbits(marked, bitorder="little")
        self.num_entries += len(keys)

    def _may_contain(self, key: bytes) -> bool:
        """Both FNV-1a states in one pass over ``key``, then the probe
        bits tested in place: ``(h1 + i*h2) % m`` stepped as
        ``h1 % m`` plus ``i`` times ``h2 % m``, reduced once per step."""
        h1 = _H1_INIT
        h2 = _H2_INIT
        for byte in key:
            h1 = ((h1 ^ byte) * _FNV_PRIME) & _MASK64
            h2 = ((h2 ^ byte) * _FNV_PRIME) & _MASK64
        bits = self._bits
        num_bits = bits._bits
        buf = bits._buf
        index = h1 % num_bits
        step = (h2 | 1) % num_bits
        for _ in range(self.num_probes):
            if not buf[index >> 3] >> (index & 7) & 1:
                return False
            index += step
            if index >= num_bits:
                index -= num_bits
        return True

    def _may_contain_many(self, keys: Sequence[bytes]) -> List[bool]:
        """Batched probes, hashing the whole key set at once through the
        build kernel's probe indices; verdicts identical to the scalar
        loop."""
        if len(keys) < _BATCH_MIN:
            return super()._may_contain_many(keys)
        import numpy as np  # at first use, as in ``add_many``
        buf = np.frombuffer(self._bits._buf, dtype=np.uint8)
        indices = _probe_indices(np, keys, len(self._bits), self.num_probes)
        bits = buf[indices >> np.uint64(3)] >> (indices & np.uint64(7)).astype(
            np.uint8)
        return (bits & np.uint8(1)).all(axis=0).tolist()

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
        filt.add_many(sorted_keys)
        return filt
