"""Key codec and prefix arithmetic tests."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.errors import ConfigError
from repro.common.keys import (
    ALPHABET_SIZE,
    common_prefix_len,
    int_to_key,
    key_to_int,
    sha1_key,
    suffix_space_size,
)


class TestIntKeyRoundTrip:
    def test_round_trip_small(self):
        assert key_to_int(int_to_key(0, 4)) == 0
        assert key_to_int(int_to_key(123456, 4)) == 123456

    def test_big_endian_preserves_order(self):
        a, b = int_to_key(100, 5), int_to_key(101, 5)
        assert a < b

    def test_overflow_rejected(self):
        with pytest.raises(ConfigError):
            int_to_key(256, 1)

    def test_negative_rejected(self):
        with pytest.raises(ConfigError):
            int_to_key(-1, 4)

    def test_zero_width_rejected(self):
        with pytest.raises(ConfigError):
            int_to_key(0, 0)

    @given(st.integers(min_value=0, max_value=2**40 - 1))
    def test_round_trip_property(self, value):
        assert key_to_int(int_to_key(value, 5)) == value

    @given(st.integers(min_value=0, max_value=2**40 - 2),
           st.integers(min_value=0, max_value=2**40 - 2))
    def test_order_preservation_property(self, a, b):
        assert (a < b) == (int_to_key(a, 5) < int_to_key(b, 5))


class TestSha1Key:
    def test_deterministic(self):
        assert sha1_key(7, 5) == sha1_key(7, 5)

    def test_namespace_changes_key(self):
        assert sha1_key(7, 5, b"a") != sha1_key(7, 5, b"b")

    def test_width(self):
        assert len(sha1_key(0, 5)) == 5
        assert len(sha1_key(0, 32)) == 32  # wider than one SHA1 digest


class TestPrefixes:
    def test_common_prefix_len(self):
        assert common_prefix_len(b"abcd", b"abxy") == 2
        assert common_prefix_len(b"abc", b"abc") == 3
        assert common_prefix_len(b"abc", b"abcd") == 3
        assert common_prefix_len(b"", b"abc") == 0

    @given(st.binary(min_size=0, max_size=8), st.binary(min_size=0, max_size=8))
    def test_common_prefix_is_prefix_of_both(self, a, b):
        n = common_prefix_len(a, b)
        assert a[:n] == b[:n]
        if n < len(a) and n < len(b):
            assert a[n] != b[n]


class TestSuffixEnumeration:
    def test_space_size(self):
        assert suffix_space_size(3, 5) == ALPHABET_SIZE**2
        assert suffix_space_size(5, 5) == 1

    def test_prefix_longer_than_key_rejected(self):
        with pytest.raises(ConfigError):
            suffix_space_size(6, 5)
