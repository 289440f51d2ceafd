"""Filter (de)serialization — the SSTable filter block format.

RocksDB persists each table's filter in a filter block so reopening a
database does not re-scan table contents; this module provides the same
for every filter family in the reproduction.  The encoding is
tag-dispatched::

    u8 tag | family-specific payload

* **Bloom** — probe count, bit count, entry count, raw bit array.
* **Prefix Bloom** — prefix length + mode, then the nested Bloom payload.
* **SuRF** — variant, suffix bits, backend choice, then the terminal list
  (prefix, payload) in strictly increasing prefix order: the same list
  both backends build from (:func:`repro.filters.surf.trie.prune`),
  so the table writer encodes the list its build just pruned
  (:func:`encode_surf_block`), :func:`serialize_filter` reads it back with
  ``backend.terminals()``, and loading is ``from_terminals``.  Only pruned
  data is stored — the serialized form is exactly as approximate as the
  filter.
* **Rosetta** — key width plus each level's Bloom payload.

Deserialized filters answer every query identically to the originals
(property-tested), so reopened trees keep bit-identical attack behaviour.
"""

from __future__ import annotations

import struct
from operator import lt
from typing import List, Sequence, Tuple

from repro.common.errors import ConfigError, CorruptionError, FilterError
from repro.filters.base import Filter
from repro.filters.bitarray import BitArray
from repro.filters.bloom import BloomFilter
from repro.filters.prefix_bloom import PrefixBloomFilter
from repro.filters.rosetta import RosettaFilter
from repro.filters.surf.louds import LoudsBackend
from repro.filters.surf.suffix import SuffixScheme, SurfVariant
from repro.filters.surf.surf import SuRF
from repro.filters.surf.trie import TrieBackend

_TAG_BLOOM = 1
_TAG_PBF = 2
_TAG_SURF = 3
_TAG_ROSETTA = 4
_TAG_SPLIT = 5

_BLOOM_HEADER = struct.Struct("<IQQ")
_PBF_HEADER = struct.Struct("<HBQ")
_SURF_HEADER = struct.Struct("<BBBI")
_SURF_TERMINAL = struct.Struct("<HQ")
_ROSETTA_HEADER = struct.Struct("<HQI")
_U32 = struct.Struct("<I")

_VARIANT_CODES = {SurfVariant.BASE: 0, SurfVariant.HASH: 1, SurfVariant.REAL: 2}
_VARIANT_BY_CODE = {code: variant for variant, code in _VARIANT_CODES.items()}
#: SuRF backends by their filter-block code.
_SURF_BACKENDS = (TrieBackend, LoudsBackend)


def serialize_filter(filt: Filter) -> bytes:
    """Encode any supported filter into its filter-block bytes."""
    from repro.filters.split import SplitFilter
    if isinstance(filt, PrefixBloomFilter):  # before Bloom: not a subclass,
        return bytes([_TAG_PBF]) + _encode_pbf(filt)  # but order documents intent
    if isinstance(filt, BloomFilter):
        return bytes([_TAG_BLOOM]) + _encode_bloom(filt)
    if isinstance(filt, SuRF):
        return encode_surf_block(filt, *filt.backend.terminals())
    if isinstance(filt, RosettaFilter):
        return bytes([_TAG_ROSETTA]) + _encode_rosetta(filt)
    if isinstance(filt, SplitFilter):
        point = serialize_filter(filt.point_filter)
        range_part = serialize_filter(filt.range_filter)
        return (bytes([_TAG_SPLIT]) + _U32.pack(len(point)) + point
                + range_part)
    raise FilterError(f"cannot serialize filter of type {type(filt).__name__}")


def deserialize_filter(data: bytes) -> Filter:
    """Decode filter-block bytes back into a live filter."""
    if not data:
        raise CorruptionError("empty filter block")
    tag, payload = data[0], data[1:]
    if tag == _TAG_BLOOM:
        filt, rest = _decode_bloom(payload)
    elif tag == _TAG_PBF:
        filt, rest = _decode_pbf(payload)
    elif tag == _TAG_SURF:
        filt, rest = _decode_surf(payload)
    elif tag == _TAG_ROSETTA:
        filt, rest = _decode_rosetta(payload)
    elif tag == _TAG_SPLIT:
        filt, rest = _decode_split(payload)
    else:
        raise CorruptionError(f"unknown filter tag {tag}")
    if rest:
        raise CorruptionError(f"{len(rest)} trailing bytes after filter block")
    return filt


# ------------------------------------------------------------------- bloom

def _encode_bloom(filt: BloomFilter) -> bytes:
    bits = filt.bit_array
    return (_BLOOM_HEADER.pack(filt.num_probes, len(bits), filt.num_entries)
            + bits.to_bytes())


def _decode_bloom(data: bytes) -> Tuple[BloomFilter, bytes]:
    if len(data) < _BLOOM_HEADER.size:
        raise CorruptionError("truncated Bloom filter block")
    num_probes, num_bits, num_entries = _BLOOM_HEADER.unpack_from(data)
    payload_len = (num_bits + 7) // 8
    start = _BLOOM_HEADER.size
    end = start + payload_len
    if len(data) < end:
        raise CorruptionError("truncated Bloom bit payload")
    # No builder writes either: BloomFilter rounds every size up to 64.
    if num_probes == 0:
        raise CorruptionError("Bloom filter block with no probes")
    if num_bits < 64:
        raise CorruptionError(f"Bloom filter block of {num_bits} bits")
    filt = BloomFilter(num_bits, num_probes)
    filt.restore_bits(BitArray.from_bytes(num_bits, data[start:end]),
                      num_entries)
    return filt, data[end:]


# --------------------------------------------------------------------- pbf

def _encode_pbf(filt: PrefixBloomFilter) -> bytes:
    return (_PBF_HEADER.pack(filt.prefix_len, int(filt.whole_key_filtering),
                             filt.num_keys)
            + _encode_bloom(filt.bloom))


def _decode_pbf(data: bytes) -> Tuple[PrefixBloomFilter, bytes]:
    if len(data) < _PBF_HEADER.size:
        raise CorruptionError("truncated PBF filter block")
    prefix_len, whole_key, num_keys = _PBF_HEADER.unpack_from(data)
    if prefix_len == 0:
        raise CorruptionError("PBF filter block with prefix length 0")
    if whole_key > 1:
        raise CorruptionError(f"unknown PBF mode byte {whole_key}")
    bloom, rest = _decode_bloom(data[_PBF_HEADER.size:])
    filt = PrefixBloomFilter(prefix_len, len(bloom.bit_array),
                             bloom.num_probes, bool(whole_key))
    filt.restore(bloom, num_keys)
    return filt, rest


# -------------------------------------------------------------------- surf

def encode_surf_block(filt: SuRF, prefixes: Sequence[bytes],
                      payloads: Sequence[int]) -> bytes:
    """``filt``'s filter block, tag included, from its terminal list.

    The one SuRF encoder: :func:`serialize_filter` reads the list back
    from the backend (``terminals()``), while the table writer
    (``SuRFBuilder.build_block``) passes the list ``filt`` was just
    built from, so the same bytes come out without the read-back.
    """
    backend_code = _SURF_BACKENDS.index(type(filt.backend))
    out = [bytes((_TAG_SURF,)),
           _SURF_HEADER.pack(_VARIANT_CODES[filt.scheme.variant],
                             filt.scheme.num_bits, backend_code,
                             len(prefixes)),
           _U32.pack(filt.num_keys)]
    pack = _SURF_TERMINAL.pack
    for prefix, payload in zip(prefixes, payloads):
        out.append(pack(len(prefix), payload))
        out.append(prefix)
    return b"".join(out)


def _decode_surf(data: bytes) -> Tuple[SuRF, bytes]:
    if len(data) < _SURF_HEADER.size + _U32.size:
        raise CorruptionError("truncated SuRF filter block")
    variant_code, suffix_bits, backend_code, count = _SURF_HEADER.unpack_from(
        data)
    if variant_code not in _VARIANT_BY_CODE:
        raise CorruptionError(f"unknown SuRF variant code {variant_code}")
    if backend_code >= len(_SURF_BACKENDS):
        raise CorruptionError(f"unknown SuRF backend code {backend_code}")
    try:
        scheme = SuffixScheme(_VARIANT_BY_CODE[variant_code], suffix_bits)
    except ConfigError as exc:
        raise CorruptionError(f"bad SuRF suffix scheme: {exc}") from exc
    offset = _SURF_HEADER.size
    (num_keys,) = _U32.unpack_from(data, offset)
    offset += _U32.size
    prefixes: List[bytes] = []
    payloads: List[int] = []
    for _ in range(count):
        if len(data) < offset + _SURF_TERMINAL.size:
            raise CorruptionError("truncated SuRF terminal record")
        prefix_len, payload = _SURF_TERMINAL.unpack_from(data, offset)
        offset += _SURF_TERMINAL.size
        prefix = data[offset : offset + prefix_len]
        if len(prefix) != prefix_len:
            raise CorruptionError("truncated SuRF terminal prefix")
        offset += prefix_len
        prefixes.append(prefix)
        payloads.append(payload)
    if not all(map(lt, prefixes, prefixes[1:])):
        raise CorruptionError("SuRF terminal records not strictly increasing")
    backend = _SURF_BACKENDS[backend_code].from_terminals(prefixes, payloads)
    return SuRF(backend, scheme, num_keys), data[offset:]


# -------------------------------------------------------------------- split

def _decode_split(data: bytes) -> Tuple[Filter, bytes]:
    from repro.filters.split import SplitFilter
    if len(data) < _U32.size:
        raise CorruptionError("truncated split filter block")
    (point_len,) = _U32.unpack_from(data)
    start = _U32.size
    if len(data) < start + point_len:
        raise CorruptionError("truncated split point-filter payload")
    point = deserialize_filter(data[start : start + point_len])
    range_filter = deserialize_filter(data[start + point_len:])
    return SplitFilter(point, range_filter), b""


# ------------------------------------------------------------------ rosetta

def _encode_rosetta(filt: RosettaFilter) -> bytes:
    out = [_ROSETTA_HEADER.pack(filt.key_bytes, filt.num_keys,
                                len(filt.levels))]
    for level in filt.levels:
        out.append(_encode_bloom(level))
    return b"".join(out)


def _decode_rosetta(data: bytes) -> Tuple[RosettaFilter, bytes]:
    if len(data) < _ROSETTA_HEADER.size:
        raise CorruptionError("truncated Rosetta filter block")
    key_bytes, num_keys, num_levels = _ROSETTA_HEADER.unpack_from(data)
    if num_levels != 8 * key_bytes:
        raise CorruptionError("Rosetta level count mismatches key width")
    rest = data[_ROSETTA_HEADER.size:]
    levels: List[BloomFilter] = []
    for _ in range(num_levels):
        bloom, rest = _decode_bloom(rest)
        levels.append(bloom)
    # Every level is sized alike (RosettaFilter.__init__); no levels at
    # all (a key width of 0) is as corrupt.
    if len({(len(level.bit_array), level.num_probes)
            for level in levels}) != 1:
        raise CorruptionError("Rosetta levels differ in size or probe count")
    filt = RosettaFilter.__new__(RosettaFilter)
    Filter.__init__(filt)
    filt.key_bytes = key_bytes
    filt.key_bits = 8 * key_bytes
    filt.num_keys = num_keys
    filt.restore_levels(levels)
    return filt, rest
