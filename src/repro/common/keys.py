"""Key codecs and prefix arithmetic.

The paper treats keys as sequences of symbols over an alphabet (bytes in all
experiments).  This module centralizes conversions between integer key ids,
fixed-width big-endian byte keys, and prefix manipulation, so the rest of the
library never hand-rolls byte twiddling.

Keys compare lexicographically as ``bytes``; encoding integers big-endian
preserves numeric order, which the LSM-tree and the SuRF trie both rely on.
"""

from __future__ import annotations

import hashlib
from typing import List, Sequence

from repro.common.errors import ConfigError

#: Number of distinct byte symbols; the alphabet size |Sigma| of the paper.
ALPHABET_SIZE = 256


def int_to_key(value: int, width: int) -> bytes:
    """Encode ``value`` as a big-endian key of ``width`` bytes.

    Raises :class:`ConfigError` if the value does not fit.
    """
    if width <= 0:
        raise ConfigError(f"key width must be positive, got {width}")
    if value < 0:
        raise ConfigError(f"key value must be non-negative, got {value}")
    try:
        return value.to_bytes(width, "big")
    except OverflowError as exc:
        raise ConfigError(f"value {value:#x} does not fit in {width} bytes") from exc


def key_to_int(key: bytes) -> int:
    """Decode a big-endian byte key back to its integer value."""
    return int.from_bytes(key, "big")


def sha1_key(index: int, width: int, namespace: bytes = b"") -> bytes:
    """Derive a pseudo-random key of ``width`` bytes from an index.

    Mirrors the paper's dataset construction ("uniformly random keys,
    generated using SHA1", section 10.1): the i-th key is the first ``width``
    bytes of SHA1(namespace || i).
    """
    digest = hashlib.sha1(namespace + index.to_bytes(8, "big")).digest()
    if width > len(digest):
        # Extend by chaining for unusually wide keys.
        out = bytearray(digest)
        counter = 0
        while len(out) < width:
            out.extend(hashlib.sha1(bytes(out[-20:]) + bytes([counter & 0xFF])).digest())
            counter += 1
        return bytes(out[:width])
    return digest[:width]


def common_prefix_len(a: bytes, b: bytes) -> int:
    """Length in bytes of the longest common prefix of ``a`` and ``b``.

    A byte loop, which is fastest for one short pair; a whole key list's
    adjacent pairs go through :func:`common_prefix_lens`.
    """
    limit = min(len(a), len(b))
    length = 0
    while length < limit and a[length] == b[length]:
        length += 1
    return length


def common_prefix_lens(keys: Sequence[bytes]) -> List[int]:
    """``common_prefix_len`` of every adjacent pair of ``keys``, in order.

    No Python step per byte: each key is read as a big-endian int once,
    and a pair's xor has its highest set bit in the first differing byte,
    so ``n`` (the shorter width) less that ``bit_length`` rounded up to
    whole bytes is the common prefix.  Keys of one width (the usual
    SSTable) xor whole; otherwise the longer of a pair is shifted down to
    the shorter's width first.
    """
    from_bytes = int.from_bytes
    ints = [from_bytes(key, "big") for key in keys]
    widths = set(map(len, keys))
    if len(widths) <= 1:
        n = widths.pop() if widths else 0
        return [n - (((x ^ y).bit_length() + 7) >> 3)
                for x, y in zip(ints, ints[1:])]
    lens = list(map(len, keys))
    return [n - ((((x >> ((la - n) << 3)) ^ (y >> ((lb - n) << 3)))
                  .bit_length() + 7) >> 3)
            for x, y, la, lb, n in zip(ints, ints[1:], lens, lens[1:],
                                       map(min, lens, lens[1:]))]


def suffix_space_size(prefix_len: int, total_len: int) -> int:
    """Number of keys of length ``total_len`` sharing a ``prefix_len`` prefix."""
    if prefix_len > total_len:
        raise ConfigError(f"prefix length {prefix_len} exceeds key length {total_len}")
    return ALPHABET_SIZE ** (total_len - prefix_len)
