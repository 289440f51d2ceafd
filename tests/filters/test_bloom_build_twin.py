"""The Bloom build kernel and the fused probe vs their per-key twin.

``tests/reference/bloom_build.py`` is the path every Bloom-family filter
took before one numpy kernel (``BloomFilter.add_many``) set its bits: one
``add`` per key over ``probe_indices`` and ``BitArray.set``, and a probe
that was ``all`` over the same generator and ``BitArray.get``.  For every
key set, each builder must write the twin's filter-block bytes, and the
built filter must answer every point, batch and range probe as a copy
whose Bloom probes are the generator's, leaving the same query stats.
"""

import random
from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference import bloom_build as twin
from repro.filters import (
    BloomFilter,
    BloomFilterBuilder,
    PrefixBloomFilter,
    PrefixBloomFilterBuilder,
    RangeFilter,
    RosettaFilter,
    RosettaFilterBuilder,
    SplitFilter,
    SplitFilterBuilder,
)
from repro.filters.serialize import deserialize_filter, serialize_filter

ALPHABETS = [b"ab", b"abcd", bytes(range(256))]


@st.composite
def key_sets(draw, width=None):
    """Sorted unique keys over a narrow or full alphabet: any lengths up
    to 9 (the empty key included), or all ``width`` bytes long."""
    alphabet = draw(st.sampled_from(ALPHABETS))
    low, high = (0, 9) if width is None else (width, width)
    keys = draw(st.sets(st.lists(st.sampled_from(alphabet), min_size=low,
                                 max_size=high).map(bytes), max_size=80))
    return sorted(keys)


def blooms_of(filt):
    """Every Bloom filter inside ``filt``."""
    if isinstance(filt, BloomFilter):
        return [filt]
    if isinstance(filt, PrefixBloomFilter):
        return [filt.bloom]
    if isinstance(filt, RosettaFilter):
        return list(filt.levels)
    assert isinstance(filt, SplitFilter)
    return [filt.point_filter]


def map_list(probe, keys):
    return [probe(key) for key in keys]


def with_twin_probe(filt):
    """A decoded copy of ``filt`` whose Bloom probes are the generator's."""
    copy = deserialize_filter(serialize_filter(filt))
    for bloom in blooms_of(copy):
        probe = partial(twin.bloom_may_contain, bloom)
        bloom._may_contain = probe
        bloom._may_contain_many = partial(map_list, probe)
    return copy


def exercise(filt, probes, ranges):
    """Every probe surface over ``probes``/``ranges``: verdicts, then the
    stats of the filter and of each Bloom inside it."""
    verdicts = [filt.may_contain(key) for key in probes]
    verdicts.append(filt.may_contain_many(probes))
    verdicts.append(filt.probe_many(probes))
    verdicts.append(filt.may_contain_many(probes[:3]))
    if isinstance(filt, RangeFilter):
        verdicts.extend(filt.may_contain_range(low, high)
                        for low, high in ranges)
        verdicts.append(filt.may_contain_range_many(ranges))
    stats = [filt.stats] + [bloom.stats for bloom in blooms_of(filt)]
    return verdicts, stats


def probe_keys(keys, rnd, width=None):
    """Stored keys, their prefixes and absent keys: past the numpy batch
    cutoff whenever the set is not tiny."""
    alphabet = bytes(sorted(set(b"".join(keys)))) or b"ab"
    probes = list(keys)
    if width is None:
        probes += [key[:cut] for key in keys[:20] for cut in (1, 2, 3)]
    for _ in range(40):
        size = width if width is not None else rnd.randrange(0, 10)
        probes.append(bytes(rnd.choice(alphabet) for _ in range(size)))
    return probes


def probe_ranges(probes):
    pairs = zip(probes[::2], probes[1::2])
    return [tuple(sorted(pair)) for pair in pairs]


def assert_matches_twin(built, expected, probes):
    assert serialize_filter(built) == serialize_filter(expected)
    ranges = probe_ranges(probes)
    assert exercise(built, probes, ranges) == exercise(
        with_twin_probe(built), probes, ranges)


@given(keys=key_sets(), bits_per_key=st.sampled_from([1, 4, 10, 13.5]),
       seed=st.integers(0, 2**32))
@example(keys=[], bits_per_key=10, seed=0)
@example(keys=[b""], bits_per_key=10, seed=0)
@example(keys=[b"k"], bits_per_key=10, seed=0)
@example(keys=[b"", b"a", b"ab", b"abcdefgh"], bits_per_key=10, seed=0)
@settings(max_examples=150, deadline=None)
def test_bloom_matches_twin(keys, bits_per_key, seed):
    built = BloomFilterBuilder(bits_per_key).build(keys)
    assert_matches_twin(built, twin.build_bloom(keys, bits_per_key),
                        probe_keys(keys, random.Random(seed)))


@given(keys=key_sets(), prefix_len=st.integers(1, 5),
       whole_key=st.booleans(), bits_per_key=st.sampled_from([6, 18]),
       seed=st.integers(0, 2**32))
@example(keys=[], prefix_len=3, whole_key=True, bits_per_key=18, seed=0)
@example(keys=[b""], prefix_len=3, whole_key=False, bits_per_key=18, seed=0)
@example(keys=[b"", b"a", b"abc", b"abcd"], prefix_len=3, whole_key=True,
         bits_per_key=18, seed=0)
@example(keys=[b"", b"a", b"abc", b"abcd"], prefix_len=3, whole_key=False,
         bits_per_key=18, seed=0)
@settings(max_examples=200, deadline=None)
def test_prefix_bloom_matches_twin(keys, prefix_len, whole_key, bits_per_key,
                                   seed):
    built = PrefixBloomFilterBuilder(prefix_len, bits_per_key,
                                     whole_key).build(keys)
    expected = twin.build_pbf(keys, prefix_len, bits_per_key, whole_key)
    assert_matches_twin(built, expected,
                        probe_keys(keys, random.Random(seed)))


@given(data=st.data(), width=st.integers(1, 4),
       bits_per_key_per_level=st.sampled_from([1.0, 2.0, 3.0]),
       seed=st.integers(0, 2**32))
@settings(max_examples=80, deadline=None)
def test_rosetta_matches_twin(data, width, bits_per_key_per_level, seed):
    keys = data.draw(key_sets(width=width))
    built = RosettaFilterBuilder(width, bits_per_key_per_level).build(keys)
    expected = twin.build_rosetta(keys, width, bits_per_key_per_level)
    assert_matches_twin(built, expected,
                        probe_keys(keys, random.Random(seed), width))


@given(keys=key_sets(), seed=st.integers(0, 2**32))
@example(keys=[], seed=0)
@example(keys=[b""], seed=0)
@settings(max_examples=60, deadline=None)
def test_split_matches_twin(keys, seed):
    builder = SplitFilterBuilder()
    expected = twin.build_split(keys, builder.point_builder.bits_per_key,
                                builder.range_builder)
    assert_matches_twin(builder.build(keys), expected,
                        probe_keys(keys, random.Random(seed)))


@pytest.mark.parametrize("whole_key", [None, True, False])
def test_large_mixed_lengths_match_twin(whole_key):
    # One table's worth of keys, many hash groups, the empty key.
    rnd = random.Random(11)
    keys = sorted({bytes(rnd.randrange(256) for _ in range(rnd.randrange(24)))
                   for _ in range(3000)})
    if whole_key is None:
        built = BloomFilterBuilder(10).build(keys)
        expected = twin.build_bloom(keys, 10)
    else:
        built = PrefixBloomFilterBuilder(3, 18.0, whole_key).build(keys)
        expected = twin.build_pbf(keys, 3, 18.0, whole_key)
    assert_matches_twin(built, expected, probe_keys(keys[::10], rnd))


def test_add_matches_twin_add():
    # ``add`` is the kernel over one key: it ORs into what is already set.
    keys = [b"x", b"", b"yy", b"x"]
    filt = BloomFilter.for_entries(len(keys), 10)
    expected = BloomFilter.for_entries(len(keys), 10)
    for key in keys:
        filt.add(key)
        twin.bloom_add(expected, key)
        assert serialize_filter(filt) == serialize_filter(expected)
