"""Succinct bitvector with O(1) rank and sampled select.

LOUDS-encoded tries (the SuRF backend in
:mod:`repro.filters.surf.louds`) navigate exclusively through ``rank1``
and ``select1`` queries over their structural bitmaps; this module provides
those operations with the standard two-level acceleration: cumulative
popcounts per 64-bit word for rank, and a position sample every
``SELECT_SAMPLE`` ones for select.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate
from typing import Dict, Iterable, List

from repro.common.errors import ConfigError
from repro.filters.bitarray import popcount as _popcount

_WORD_BITS = 64
#: One select sample is kept per this many set bits.
SELECT_SAMPLE = 64


class BitVector:
    """Immutable bitvector supporting rank/select.

    Built once from an iterable of booleans; construction precomputes the
    rank directory.  ``rank1(i)`` counts set bits in ``[0, i)`` and
    ``select1(r)`` returns the position of the r-th set bit (r >= 1).
    """

    def __init__(self, bits: Iterable[bool]) -> None:
        words: List[int] = []
        length = 0
        current = 0
        for bit in bits:
            if bit:
                current |= 1 << (length % _WORD_BITS)
            length += 1
            if length % _WORD_BITS == 0:
                words.append(current)
                current = 0
        if length % _WORD_BITS:
            words.append(current)
        self._init_from_words(words, length)

    @classmethod
    def from_words(cls, words: Iterable[int], length: int) -> "BitVector":
        """Build from pre-packed 64-bit words (LSB-first within a word).

        The fast path for builders that can assemble whole words (the
        LOUDS construction): skips the per-bool accumulation loop of
        ``__init__`` while producing an identical structure.  ``words``
        must hold exactly ``ceil(length / 64)`` entries; bits at or above
        ``length`` in the final word must be clear.
        """
        words = list(words)
        if length < 0:
            raise ConfigError("bit length must be non-negative")
        expected = (length + _WORD_BITS - 1) // _WORD_BITS
        if len(words) != expected:
            raise ConfigError(
                f"{len(words)} words cannot hold {length} bits "
                f"(expected {expected})")
        tail = length % _WORD_BITS
        if words:
            if min(words) < 0 or max(words) >> _WORD_BITS:
                raise ConfigError("words must be unsigned 64-bit values")
            if tail and words[-1] >> tail:
                raise ConfigError("bits beyond the declared length must be clear")
        self = cls.__new__(cls)
        self._init_from_words(words, length)
        return self

    def _init_from_words(self, words: List[int], length: int) -> None:
        self._words = words
        self._length = length
        # Cumulative set-bit count *before* each word.
        self._rank_dir: List[int] = list(accumulate(map(_popcount, words),
                                                    initial=0))
        self._ones = self._rank_dir[-1]
        # Sampled select: position of the (SELECT_SAMPLE*j + 1)-th one,
        # found by a directory search for its word and a popcount halving
        # search inside it; no loop over the set bits.
        self._select_samples: List[int] = [
            self._select_sample(target)
            for target in range(0, self._ones, SELECT_SAMPLE)]

    def _select_sample(self, target: int) -> int:
        """Position of the one with 0-based index ``target``."""
        word_index = bisect_right(self._rank_dir, target) - 1
        word = self._words[word_index]
        skip = target - self._rank_dir[word_index]
        pos = word_index << 6
        for width in (32, 16, 8, 4, 2, 1):
            below = _popcount(word & ((1 << width) - 1))
            if below <= skip:
                skip -= below
                word >>= width
                pos += width
        return pos

    def __len__(self) -> int:
        return self._length

    @property
    def ones(self) -> int:
        """Total number of set bits."""
        return self._ones

    @property
    def words(self) -> List[int]:
        """The packed 64-bit payload words (LSB-first within a word).

        Exposed (read-only by convention) so batched traversal cores can
        bind the raw list to a local and inline bit tests without a
        method call per probe.
        """
        return self._words

    @property
    def rank_directory(self) -> List[int]:
        """Precomputed popcount directory: set bits *before* each word.

        ``rank_directory[w] + popcount(words[w] & mask)`` is the whole of
        ``rank1`` — de-virtualized cores (the LOUDS batch probe path)
        consume these two lists directly instead of calling :meth:`rank1`
        per node transition.
        """
        return self._rank_dir

    def get(self, index: int) -> bool:
        """Bit at ``index``."""
        if not 0 <= index < self._length:
            raise ConfigError(f"bit index {index} out of range [0, {self._length})")
        return bool(self._words[index >> 6] >> (index & 63) & 1)

    def __getitem__(self, index: int) -> bool:
        return self.get(index)

    def rank1(self, index: int) -> int:
        """Number of set bits in ``[0, index)``; ``index`` may equal len."""
        if not 0 <= index <= self._length:
            raise ConfigError(f"rank index {index} out of range [0, {self._length}]")
        word_index, offset = index >> 6, index & 63
        count = self._rank_dir[word_index]
        if offset:
            mask = (1 << offset) - 1
            count += _popcount(self._words[word_index] & mask)
        return count

    def rank0(self, index: int) -> int:
        """Number of clear bits in ``[0, index)``."""
        return index - self.rank1(index)

    def select1(self, rank: int) -> int:
        """Position of the ``rank``-th set bit (1-indexed)."""
        if not 1 <= rank <= self._ones:
            raise ConfigError(f"select rank {rank} out of range [1, {self._ones}]")
        # Start from the nearest sample at or before the target, then scan
        # forward one set bit at a time.
        sample_index = (rank - 1) // SELECT_SAMPLE
        pos = self._select_samples[sample_index]
        remaining = rank - (sample_index * SELECT_SAMPLE + 1)
        if remaining == 0:
            return pos
        word_index = pos >> 6
        # Mask off the sampled one and everything before it in its word.
        word = self._words[word_index] & ~((1 << ((pos & 63) + 1)) - 1)
        while True:
            while word:
                low = word & -word
                word ^= low
                remaining -= 1
                if remaining == 0:
                    return (word_index << 6) + low.bit_length() - 1
            word_index += 1
            word = self._words[word_index]

    def memory_bits(self) -> int:
        """Approximate storage: payload + rank directory + select samples.

        Directory entries are priced at the width actually needed to
        address this vector — a cumulative count is at most ``ones`` and a
        select sample is a position below ``length``, so both fit in
        ``ceil(log2(length + 1))`` bits.  (They were previously charged a
        flat 32 bits each, which overstated small vectors and would
        understate vectors beyond 4 Gbit.)
        """
        return sum(self.memory_parts().values())

    def memory_parts(self) -> Dict[str, int]:
        """:meth:`memory_bits` per structure: the payload ``words``, the
        ``rank`` directory and the ``select`` samples."""
        entry_bits = max(1, self._length.bit_length())
        return {"words": len(self._words) * _WORD_BITS,
                "rank": len(self._rank_dir) * entry_bits,
                "select": len(self._select_samples) * entry_bits}
