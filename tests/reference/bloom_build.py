"""Bloom-family builds one key at a time, and the generator probe.

Before every Bloom-family filter set its bits through one numpy kernel
(``BloomFilter.add_many``), each builder inserted its keys one by one:
``BloomFilter.add`` walked :func:`~repro.filters.hashing.probe_indices`
and set each bit through ``BitArray.set``; ``PrefixBloomFilter.add``
inserted the key and its prefix (or only one of them); ``RosettaFilter.add``
inserted every bit-prefix into its level.  A point probe was ``all`` over
the same generator and ``BitArray.get``.  The code below is that path,
kept verbatim apart from becoming module functions over freshly sized
filters.  It proves the **bytes and the verdicts**: ``serialize_filter``
must write the same filter block for the builders' output as for these
builds, and the fused probe must answer as :func:`bloom_may_contain`
(``tests/filters/test_bloom_build_twin.py``).
"""

from __future__ import annotations

from typing import Sequence

from repro.filters.bloom import BloomFilter
from repro.filters.hashing import probe_indices
from repro.filters.prefix_bloom import PrefixBloomFilter
from repro.filters.rosetta import RosettaFilter
from repro.filters.split import SplitFilter


def bloom_add(filt: BloomFilter, key: bytes) -> None:
    """Insert ``key``."""
    for index in probe_indices(key, filt.num_probes, len(filt.bit_array)):
        filt.bit_array.set(index)
    filt.num_entries += 1


def bloom_may_contain(filt: BloomFilter, key: bytes) -> bool:
    """The generator probe, without touching ``filt.stats``."""
    return all(
        filt.bit_array.get(index)
        for index in probe_indices(key, filt.num_probes, len(filt.bit_array))
    )


def build_bloom(sorted_keys: Sequence[bytes],
                bits_per_key: float) -> BloomFilter:
    filt = BloomFilter.for_entries(len(sorted_keys), bits_per_key)
    for key in sorted_keys:
        bloom_add(filt, key)
    return filt


def pbf_add(filt: PrefixBloomFilter, key: bytes) -> None:
    """Insert a key and its ``prefix_len``-byte prefix."""
    if filt.whole_key_filtering:
        bloom_add(filt.bloom, key)
    if len(key) >= filt.prefix_len:
        bloom_add(filt.bloom, key[: filt.prefix_len])
    elif not filt.whole_key_filtering:
        # Short keys must still be findable in prefix-only mode.
        bloom_add(filt.bloom, key)
    filt.num_keys += 1


def build_pbf(sorted_keys: Sequence[bytes], prefix_len: int,
              bits_per_key: float,
              whole_key_filtering: bool) -> PrefixBloomFilter:
    filt = PrefixBloomFilter.for_entries(
        len(sorted_keys), bits_per_key, prefix_len, whole_key_filtering)
    for key in sorted_keys:
        pbf_add(filt, key)
    return filt


def rosetta_add(filt: RosettaFilter, key: bytes) -> None:
    """Insert a key: every bit-prefix goes into its level's filter."""
    value = filt._check_width(key)
    for level in range(1, filt.key_bits + 1):
        prefix = value >> (filt.key_bits - level)
        bloom_add(filt.levels[level - 1], filt._encode(level, prefix))
    filt.num_keys += 1


def build_rosetta(sorted_keys: Sequence[bytes], key_bytes: int,
                  bits_per_key_per_level: float) -> RosettaFilter:
    filt = RosettaFilter(key_bytes, len(sorted_keys), bits_per_key_per_level)
    for key in sorted_keys:
        rosetta_add(filt, key)
    return filt


def build_split(sorted_keys: Sequence[bytes], bits_per_key: float,
                range_builder) -> SplitFilter:
    """The split filter: a per-key Bloom build beside the range filter."""
    return SplitFilter(build_bloom(sorted_keys, bits_per_key),
                       range_builder.build(sorted_keys))
