"""Succinct bitvector rank/select tests, including against a naive model."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.errors import ConfigError
from repro.filters.rank_select import SELECT_SAMPLE, BitVector


class TestBasics:
    def test_get(self):
        bv = BitVector([True, False, True, True])
        assert [bv.get(i) for i in range(4)] == [True, False, True, True]
        assert bv[0] and not bv[1]

    def test_len_and_ones(self):
        bv = BitVector([True, False, True])
        assert len(bv) == 3
        assert bv.ones == 2

    def test_empty(self):
        bv = BitVector([])
        assert len(bv) == 0
        assert bv.ones == 0
        assert bv.rank1(0) == 0

    def test_bounds(self):
        bv = BitVector([True])
        with pytest.raises(ConfigError):
            bv.get(1)
        with pytest.raises(ConfigError):
            bv.rank1(2)
        with pytest.raises(ConfigError):
            bv.select1(0)
        with pytest.raises(ConfigError):
            bv.select1(2)


class TestRank:
    def test_rank_counts_prefix(self):
        bits = [True, True, False, True, False]
        bv = BitVector(bits)
        for i in range(len(bits) + 1):
            assert bv.rank1(i) == sum(bits[:i])
            assert bv.rank0(i) == i - sum(bits[:i])

    def test_rank_across_word_boundaries(self):
        bits = [i % 3 == 0 for i in range(300)]
        bv = BitVector(bits)
        for i in (0, 63, 64, 65, 127, 128, 200, 300):
            assert bv.rank1(i) == sum(bits[:i])


class TestSelect:
    def test_select_inverse_of_rank(self):
        bits = [i % 5 == 0 for i in range(400)]
        bv = BitVector(bits)
        positions = [i for i, b in enumerate(bits) if b]
        for rank, pos in enumerate(positions, 1):
            assert bv.select1(rank) == pos

    def test_select_past_sampling_interval(self):
        # More than SELECT_SAMPLE ones, exercising the sampled path.
        bits = [True] * 200
        bv = BitVector(bits)
        assert bv.select1(1) == 0
        assert bv.select1(65) == 64
        assert bv.select1(200) == 199


@given(st.lists(st.booleans(), min_size=0, max_size=500))
def test_rank_select_match_naive_model(bits):
    bv = BitVector(bits)
    ones = [i for i, b in enumerate(bits) if b]
    assert bv.ones == len(ones)
    for i in range(0, len(bits) + 1, max(1, len(bits) // 7)):
        assert bv.rank1(i) == len([p for p in ones if p < i])
    for rank, pos in enumerate(ones, 1):
        assert bv.select1(rank) == pos


class TestFromWords:
    def test_matches_bool_construction(self):
        bits = [i % 7 in (0, 2, 3) for i in range(517)]
        words = []
        for start in range(0, len(bits), 64):
            word = 0
            for offset, bit in enumerate(bits[start:start + 64]):
                if bit:
                    word |= 1 << offset
            words.append(word)
        fast = BitVector.from_words(words, len(bits))
        slow = BitVector(bits)
        assert fast._words == slow._words
        assert fast._rank_dir == slow._rank_dir
        assert fast._select_samples == slow._select_samples
        assert len(fast) == len(slow) and fast.ones == slow.ones

    def test_empty(self):
        bv = BitVector.from_words([], 0)
        assert len(bv) == 0 and bv.ones == 0

    def test_rejects_bad_shapes(self):
        with pytest.raises(ConfigError):
            BitVector.from_words([0], 0)  # too many words
        with pytest.raises(ConfigError):
            BitVector.from_words([], 1)  # too few words
        with pytest.raises(ConfigError):
            BitVector.from_words([1 << 64], 65)  # not a u64
        with pytest.raises(ConfigError):
            BitVector.from_words([0b100], 2)  # set bit past length
        with pytest.raises(ConfigError):
            BitVector.from_words([], -1)


@given(st.lists(st.integers(0, 2**64 - 1), min_size=0, max_size=8),
       st.integers(0, 63))
def test_from_words_equals_bool_path(full_words, tail_bits):
    length = len(full_words) * 64 + tail_bits
    words = list(full_words)
    if tail_bits:
        words.append(full_words[-1] & ((1 << tail_bits) - 1)
                     if full_words else (1 << tail_bits) - 1)
        length = len(full_words) * 64 + tail_bits
    bits = [bool(words[i >> 6] >> (i & 63) & 1) for i in range(length)]
    fast = BitVector.from_words(words, length)
    slow = BitVector(bits)
    assert fast._words == slow._words
    assert fast._rank_dir == slow._rank_dir
    assert fast._select_samples == slow._select_samples


@given(st.integers(min_value=1, max_value=600), st.integers(0, 2**32))
def test_select_rank_round_trip(length, seed):
    import random
    rnd = random.Random(seed)
    bits = [rnd.random() < 0.3 for _ in range(length)]
    bv = BitVector(bits)
    for rank in range(1, bv.ones + 1):
        pos = bv.select1(rank)
        assert bv.get(pos)
        assert bv.rank1(pos + 1) == rank


def _iter_ones(words):
    """Every set bit's position, one at a time (the per-one definition)."""
    for wi, word in enumerate(words):
        while word:
            low = word & -word
            yield wi * 64 + low.bit_length() - 1
            word ^= low


_WORDS = st.one_of(st.just(0), st.just(2**64 - 1), st.integers(0, 2**64 - 1),
                   st.integers(0, 63).map(lambda bit: 1 << bit))


@given(st.lists(_WORDS, max_size=40), st.integers(0, 63))
def test_select_samples_match_per_one_definition(words, tail_bits):
    # All-zero, all-ones, single-bit and random words; a partial last word
    # when ``tail_bits`` is non-zero.
    length = 64 * len(words)
    if words and tail_bits:
        words[-1] &= (1 << tail_bits) - 1
        length -= 64 - tail_bits
    bv = BitVector.from_words(words, length)
    expected = list(_iter_ones(words))[::SELECT_SAMPLE]
    assert bv._select_samples == expected
    for rank, pos in enumerate(expected):
        assert bv.select1(rank * SELECT_SAMPLE + 1) == pos
