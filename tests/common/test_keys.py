"""Key codec and prefix arithmetic tests."""

import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.common.errors import ConfigError
from repro.system.detector import SiphoningDetector
from repro.common.keys import (
    ALPHABET_SIZE,
    common_prefix_len,
    common_prefix_lens,
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


def byte_loop_lcp(a, b):
    """A byte-at-a-time common prefix, written out independently of
    ``repro.common.keys``."""
    limit = min(len(a), len(b))
    length = 0
    while length < limit and a[length] == b[length]:
        length += 1
    return length


#: Keys over a few bytes, 0x00/0xff runs included, up to past 64 bytes.
keys_with_runs = st.lists(
    st.one_of(st.sampled_from([b"\x00", b"\xff", b"a"]),
              st.binary(min_size=1, max_size=1),
              st.sampled_from([b"\x00" * 33, b"\xff" * 40, b"a" * 65])),
    max_size=12).map(b"".join)


class TestCommonPrefixLensEqualsByteLoop:
    @given(keys_with_runs, keys_with_runs)
    @example(b"", b"")
    @example(b"", b"\x00")
    @example(b"abc", b"abc")
    @example(b"\x00" * 70, b"\x00" * 70)
    @example(b"\xff" * 70, b"\xff" * 69 + b"\xfe")
    @example(b"\x00" * 3, b"\x00" * 3 + b"\xff")
    def test_pair(self, a, b):
        expected = byte_loop_lcp(a, b)
        assert common_prefix_len(a, b) == expected
        assert common_prefix_lens([a, b]) == [expected]
        assert common_prefix_lens([b, a]) == [expected]
        assert common_prefix_lens([a, a, a + b]) == [len(a), len(a)]

    @given(st.lists(keys_with_runs, max_size=30))
    @example([])
    @example([b""])
    @example([b"", b"", b"a"])
    @example([b"\x00" * 65, b"\x00" * 66, b"\x00" * 65 + b"\x01"])
    def test_adjacent_pairs(self, keys):
        # Any order, widths mixed or not, duplicates included.
        for batch in (keys, sorted(keys), [key.ljust(70, b"\x00")
                                           for key in keys]):
            assert common_prefix_lens(batch) == [
                byte_loop_lcp(a, b) for a, b in zip(batch, batch[1:])]

    @given(st.lists(keys_with_runs, min_size=0, max_size=40))
    def test_detector_scores_unchanged(self, misses):
        # The detector's LCP excess, as the byte loop scored it.
        ordered = sorted(misses)
        if len(ordered) < 8:
            expected = 0.0
        else:
            total = sum(byte_loop_lcp(a, b)
                        for a, b in zip(ordered, ordered[1:]))
            expected = (total / (len(ordered) - 1)
                        - (math.log(max(2, len(ordered)), 256)
                           + 256 / 255 - 1))
        assert SiphoningDetector()._lcp_excess(misses) == expected


class TestSuffixEnumeration:
    def test_space_size(self):
        assert suffix_space_size(3, 5) == ALPHABET_SIZE**2
        assert suffix_space_size(5, 5) == 1

    def test_prefix_longer_than_key_rejected(self):
        with pytest.raises(ConfigError):
            suffix_space_size(6, 5)
