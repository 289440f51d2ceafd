"""Suffix-bit schemes of the SuRF variants (paper section 6.1, Figure 1).

SuRF-Base stores nothing per leaf; SuRF-Hash stores ``n`` bits of a hash of
the full key; SuRF-Real stores the first ``m`` bits of the key's suffix
beyond the pruned prefix.  A point query that reaches a terminal compares
the query's corresponding bits against the stored payload, trading a little
memory for a big FPR reduction — and, as section 10.3.3 shows, handing the
attacker longer effective prefixes in the SuRF-Real case.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.common.errors import ConfigError
from repro.filters.hashing import suffix_hash_bits


class SurfVariant(enum.Enum):
    """The three SuRF flavors of the paper."""

    BASE = "base"
    HASH = "hash"
    REAL = "real"


def _real_window(num_bits: int) -> Tuple[int, int]:
    """A REAL suffix of ``num_bits`` bits: the key bytes it reads, and the
    right shift that drops the last byte's unused low bits (what
    :func:`real_suffix_bits` computes per call, for the batch forms)."""
    num_bytes = (num_bits + 7) // 8
    return num_bytes, 8 * num_bytes - num_bits


def real_suffix_bits(key: bytes, depth: int, num_bits: int) -> int:
    """First ``num_bits`` bits of ``key[depth:]``, zero-padded on the right.

    ``depth`` is the terminal's depth in bytes — the length of the pruned
    prefix including the distinguishing byte.  Keys shorter than the probed
    window contribute zero bits, which is exactly how a real bit-packed
    suffix array reads past a short key's end.
    """
    if num_bits == 0:
        return 0
    num_bytes = (num_bits + 7) // 8
    chunk = key[depth : depth + num_bytes]
    chunk = chunk + b"\x00" * (num_bytes - len(chunk))
    return int.from_bytes(chunk, "big") >> (8 * num_bytes - num_bits)


@dataclass(frozen=True)
class SuffixScheme:
    """Computes and compares per-leaf suffix payloads for one variant."""

    variant: SurfVariant
    num_bits: int = 8

    def __post_init__(self) -> None:
        if self.variant is SurfVariant.BASE:
            if self.num_bits:
                object.__setattr__(self, "num_bits", 0)
        elif not 0 < self.num_bits <= 64:
            raise ConfigError(
                f"suffix bits must be in [1, 64] for {self.variant.value}, "
                f"got {self.num_bits}"
            )

    def payload(self, full_key: bytes, depth: int) -> int:
        """Payload stored at a terminal of ``depth`` for ``full_key``.

        One key at a time; the build takes a whole list through
        :meth:`payloads`.  Kept as the per-key form that the dict-trie
        twin in ``tests/reference/surf_build.py`` builds with, so the
        twin does not share :meth:`payloads`' arithmetic.
        """
        if self.variant is SurfVariant.BASE:
            return 0
        if self.variant is SurfVariant.HASH:
            return suffix_hash_bits(full_key, self.num_bits)
        return real_suffix_bits(full_key, depth, self.num_bits)

    def payloads(self, keys: Sequence[bytes],
                 depths: Sequence[int]) -> List[int]:
        """:meth:`payload` of every ``(key, depth)`` pair, as one
        comprehension per variant (the terminal list's build)."""
        if self.variant is SurfVariant.BASE:
            return [0] * len(keys)
        num_bits = self.num_bits
        if self.variant is SurfVariant.HASH:
            return [suffix_hash_bits(key, num_bits) for key in keys]
        num_bytes, shift = _real_window(num_bits)
        if num_bytes == 1:
            return [key[depth] >> shift if depth < len(key) else 0
                    for key, depth in zip(keys, depths)]
        from_bytes = int.from_bytes
        return [from_bytes(key[depth:depth + num_bytes].ljust(num_bytes,
                                                              b"\x00"),
                           "big") >> shift
                for key, depth in zip(keys, depths)]

    def matches(self, query: bytes, depth: int, payload: int) -> bool:
        """Whether a query reaching a terminal of ``depth`` passes."""
        if self.variant is SurfVariant.BASE:
            return True
        if self.variant is SurfVariant.HASH:
            return suffix_hash_bits(query, self.num_bits) == payload
        return real_suffix_bits(query, depth, self.num_bits) == payload

    @property
    def window(self):
        """Key bytes past a leaf's depth that its verdict reads: 0 for
        BASE, the suffix bits' bytes for REAL; None for HASH, whose
        verdict reads the whole key."""
        if self.variant is SurfVariant.HASH:
            return None
        return (self.num_bits + 7) // 8

    def matcher(self):
        """Specialized ``(query, depth, payload) -> bool`` for hot loops.

        Same decisions as :meth:`matches` with the per-call variant
        dispatch hoisted out; the one-byte-window case (suffix bits <= 8,
        the standard configuration) avoids slicing entirely.  Batch
        lookups bind this once per batch.
        """
        if self.variant is SurfVariant.BASE:
            return lambda query, depth, payload: True
        num_bits = self.num_bits
        if self.variant is SurfVariant.HASH:
            return (lambda query, depth, payload:
                    suffix_hash_bits(query, num_bits) == payload)
        num_bytes, shift = _real_window(num_bits)
        if num_bytes == 1:
            return (lambda query, depth, payload:
                    ((query[depth] >> shift) if depth < len(query) else 0)
                    == payload)
        pad = b"\x00" * num_bytes
        from_bytes = int.from_bytes

        def real_matches(query: bytes, depth: int, payload: int) -> bool:
            chunk = query[depth:depth + num_bytes]
            if len(chunk) < num_bytes:
                chunk = chunk + pad[:num_bytes - len(chunk)]
            return (from_bytes(chunk, "big") >> shift) == payload

        return real_matches

    @property
    def label(self) -> str:
        """Short label for filter names and bench tables."""
        if self.variant is SurfVariant.BASE:
            return "base"
        return f"{self.variant.value}{self.num_bits}"
