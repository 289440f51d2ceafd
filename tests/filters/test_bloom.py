"""Bloom filter tests: no false negatives, FPR in the expected band."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigError
from repro.filters.bloom import (
    BloomFilter,
    BloomFilterBuilder,
    optimal_num_probes,
    theoretical_fpr,
)


class TestSizing:
    def test_optimal_probes(self):
        assert optimal_num_probes(10) == 7  # ln2 * 10 = 6.93
        assert optimal_num_probes(1) == 1
        assert optimal_num_probes(0.1) == 1

    def test_theoretical_fpr_monotone_in_bits(self):
        assert theoretical_fpr(4) > theoretical_fpr(10) > theoretical_fpr(20)

    def test_theoretical_fpr_degenerate(self):
        assert theoretical_fpr(0) == 1.0

    def test_bad_config(self):
        with pytest.raises(ConfigError):
            BloomFilter(100, 0)
        with pytest.raises(ConfigError):
            BloomFilter.for_entries(100, 0)
        with pytest.raises(ConfigError):
            BloomFilter.for_entries(-1, 10)


class TestMembership:
    def test_no_false_negatives(self):
        filt = BloomFilter.for_entries(1000, 10)
        keys = [i.to_bytes(4, "big") for i in range(1000)]
        for key in keys:
            filt.add(key)
        assert all(filt.may_contain(key) for key in keys)

    def test_fpr_near_theoretical(self):
        filt = BloomFilter.for_entries(2000, 10)
        for i in range(2000):
            filt.add(i.to_bytes(4, "big"))
        absent = [i.to_bytes(4, "big") for i in range(10_000, 40_000)]
        fpr = sum(filt.may_contain(k) for k in absent) / len(absent)
        assert fpr < 4 * theoretical_fpr(10) + 0.005

    def test_empty_filter_rejects(self):
        filt = BloomFilter.for_entries(100, 10)
        assert not filt.may_contain(b"anything")

    def test_stats_recorded(self):
        filt = BloomFilter.for_entries(10, 10)
        filt.add(b"a")
        filt.may_contain(b"a")
        filt.may_contain(b"definitely-absent-key")
        assert filt.stats.point_queries == 2
        assert filt.stats.positives >= 1

    @given(st.sets(st.binary(min_size=1, max_size=8), min_size=1, max_size=50))
    @settings(max_examples=50)
    def test_no_false_negatives_property(self, keys):
        filt = BloomFilter.for_entries(len(keys), 8)
        for key in keys:
            filt.add(key)
        assert all(filt.may_contain(key) for key in keys)


class TestBuilder:
    def test_builds_over_keys(self):
        builder = BloomFilterBuilder(bits_per_key=10)
        filt = builder.build([b"a", b"b", b"c"])
        assert all(filt.may_contain(k) for k in (b"a", b"b", b"c"))
        assert "bloom" in builder.name

    def test_bits_per_key_accounting(self):
        filt = BloomFilterBuilder(bits_per_key=10).build(
            [i.to_bytes(4, "big") for i in range(1000)])
        assert 9 <= filt.bits_per_key(1000) <= 12

    def test_invalid_budget(self):
        with pytest.raises(ConfigError):
            BloomFilterBuilder(bits_per_key=0)

    def test_fill_ratio_reasonable(self):
        filt = BloomFilterBuilder(bits_per_key=10).build(
            [i.to_bytes(4, "big") for i in range(1000)])
        assert 0.3 < filt.fill_ratio() < 0.7  # ~0.5 at the optimum

