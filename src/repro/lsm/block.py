"""SSTable block encoding.

A block packs sorted key/entry records followed by an offsets array, so a
reader can binary-search within the block without decoding every record:

``[record...][u32 offset per record][u32 record count][u32 crc32]``

Each record is ``u16 key_len | u8 flags | u32 value_len | key | value``;
flag bit 0 marks a tombstone (tombstones carry no value bytes but must
survive into SSTables so compaction can shadow older levels).  The
trailing CRC32 covers everything before it and is verified on every
decode, so device corruption surfaces as :class:`CorruptionError` instead
of garbage reads.
"""

from __future__ import annotations

import struct
import zlib
from bisect import bisect_left
from typing import Dict, List, Optional, Tuple

from repro.common.errors import ConfigError, CorruptionError
from repro.lsm.memtable import TOMBSTONE, Entry

_RECORD_HEADER = struct.Struct("<HBI")
_U32 = struct.Struct("<I")
#: The record header's leading key length, alone.
_U16 = struct.Struct("<H")
_FLAG_TOMBSTONE = 0x01


def encode_record(key: bytes, entry: Entry) -> bytes:
    """Serialize one record."""
    if not key:
        raise ConfigError("empty keys are not supported")
    if len(key) > 0xFFFF:
        raise ConfigError(f"key of {len(key)} bytes exceeds the u16 length field")
    if entry.is_tombstone:
        return _RECORD_HEADER.pack(len(key), _FLAG_TOMBSTONE, 0) + key
    return _RECORD_HEADER.pack(len(key), 0, len(entry.value)) + key + entry.value


class BlockBuilder:
    """Accumulates sorted records until the block reaches its target size."""

    def __init__(self, target_bytes: int) -> None:
        if target_bytes <= 0:
            raise ConfigError("block target size must be positive")
        self.target_bytes = target_bytes
        self._records: List[bytes] = []
        self._offsets: List[int] = []
        self._size = 0
        self.first_key: Optional[bytes] = None
        self.last_key: Optional[bytes] = None

    def add(self, key: bytes, entry: Entry) -> None:
        """Append a record; keys must arrive in ascending order."""
        if self.last_key is not None and key <= self.last_key:
            raise ConfigError("block records must be added in ascending key order")
        record = encode_record(key, entry)
        self._offsets.append(self._size)
        self._records.append(record)
        self._size += len(record)
        if self.first_key is None:
            self.first_key = key
        self.last_key = key

    @property
    def is_full(self) -> bool:
        """Whether the block has reached its target payload size."""
        return self._size >= self.target_bytes

    @property
    def num_records(self) -> int:
        """Records added so far."""
        return len(self._records)

    def finish(self) -> bytes:
        """Serialize the block (builder must not be reused afterwards)."""
        payload = b"".join(self._records)
        trailer = b"".join(_U32.pack(off) for off in self._offsets)
        body = payload + trailer + _U32.pack(len(self._offsets))
        return body + _U32.pack(zlib.crc32(body))


class Block:
    """Decoded view of one block, supporting binary search by key.

    ``data`` may be ``bytes`` or a zero-copy ``memoryview`` (the mmap
    read path); checksum verification, ``unpack_from`` and slicing all
    work directly on the buffer, and only the keys/values a lookup
    actually touches are materialized to ``bytes`` — record-granularity
    copies, never block-sized ones.
    """

    def __init__(self, data: bytes) -> None:
        if len(data) < 2 * _U32.size:
            raise CorruptionError("block too small to contain its trailer")
        (stored_crc,) = _U32.unpack_from(data, len(data) - _U32.size)
        body = data[: len(data) - _U32.size]
        if zlib.crc32(body) != stored_crc:
            raise CorruptionError("block checksum mismatch")
        (count,) = _U32.unpack_from(body, len(body) - _U32.size)
        trailer_size = _U32.size * (count + 1)
        if trailer_size > len(body):
            raise CorruptionError(f"block trailer of {count} offsets overflows block")
        self._data = body
        self._count = count
        self._offsets_start = len(body) - trailer_size
        # Search-structure memo, built lazily on the *second* lookup: a
        # block looked up once (the uncached case) pays nothing extra,
        # while a block that is reused — only possible via the decoded
        # cache — amortizes one key sweep (a single pass over the offsets
        # array, see _materialize_keys) into O(1) dict hits.  Most blocks
        # that reach it are evicted by the next eviction wait, so the
        # sweep itself is kept cheap.  Pure wall-clock: simulated search
        # cost is charged by the caller either way.
        self._lookups = 0
        self._keys: Optional[List[bytes]] = None
        self._key_index: Optional[Dict[bytes, int]] = None

    def __len__(self) -> int:
        return self._count

    def _materialize_keys(self) -> None:
        # One pass: the whole offsets array in one unpack, then every key
        # sliced straight off the buffer (what key_at does per index).
        data = self._data
        offsets = struct.unpack_from(f"<{self._count}I", data,
                                     self._offsets_start)
        header = _RECORD_HEADER.size
        key_len = _U16.unpack_from
        keys = [bytes(data[off + header:
                           off + header + key_len(data, off)[0]])
                for off in offsets]
        self._keys = keys
        self._key_index = {key: index for index, key in enumerate(keys)}
        self._entries: List[Optional[Entry]] = [None] * self._count

    def _offset(self, index: int) -> int:
        (off,) = _U32.unpack_from(self._data, self._offsets_start + _U32.size * index)
        return off

    def record_at(self, index: int) -> Tuple[bytes, Entry]:
        """Decode the record at ``index``."""
        if not 0 <= index < self._count:
            raise CorruptionError(f"record index {index} out of range [0, {self._count})")
        off = self._offset(index)
        key_len, flags, value_len = _RECORD_HEADER.unpack_from(self._data, off)
        key_start = off + _RECORD_HEADER.size
        key = bytes(self._data[key_start : key_start + key_len])
        if flags & _FLAG_TOMBSTONE:
            return key, TOMBSTONE
        value = bytes(
            self._data[key_start + key_len : key_start + key_len + value_len])
        return key, Entry(value)

    def key_at(self, index: int) -> bytes:
        """Decode only the key at ``index`` (binary-search probe)."""
        off = self._offset(index)
        key_len, _, _ = _RECORD_HEADER.unpack_from(self._data, off)
        key_start = off + _RECORD_HEADER.size
        return bytes(self._data[key_start : key_start + key_len])

    def get(self, key: bytes) -> Optional[Entry]:
        """Entry for ``key`` within this block, or None."""
        index_map = self._key_index
        if index_map is not None:
            index = index_map.get(key)
            if index is None:
                return None
            entry = self._entries[index]
            if entry is None:
                entry = self.record_at(index)[1]
                self._entries[index] = entry
            return entry
        index = self.lower_bound(key)
        if index < self._count and self.key_at(index) == key:
            return self.record_at(index)[1]
        return None

    def lower_bound(self, key: bytes) -> int:
        """Index of the first record with key >= ``key``."""
        if self._keys is not None:
            return bisect_left(self._keys, key)
        self._lookups += 1
        if self._lookups >= 2:
            self._materialize_keys()
            return bisect_left(self._keys, key)
        lo, hi = 0, self._count
        while lo < hi:
            mid = (lo + hi) // 2
            if self.key_at(mid) < key:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def records(self) -> List[Tuple[bytes, Optional[bytes]]]:
        """Every record in key order, as ``(key, value)`` with ``None``
        for a tombstone (the table writer's record shape).

        One pass: the offsets array in one unpack and the body copied to
        ``bytes`` once, so each key and value is one slice — what
        :meth:`record_at` decodes per index, without its per-record
        offset read and bounds check.
        """
        data = bytes(self._data)
        offsets = struct.unpack_from(f"<{self._count}I", data,
                                     self._offsets_start)
        header = _RECORD_HEADER.size
        unpack = _RECORD_HEADER.unpack_from
        out = []
        append = out.append
        for off in offsets:
            key_len, flags, value_len = unpack(data, off)
            key_end = off + header + key_len
            append((data[off + header:key_end],
                    None if flags & _FLAG_TOMBSTONE
                    else data[key_end:key_end + value_len]))
        return out

    def items(self):
        """All records in key order, as ``(key, Entry)``."""
        for key, value in self.records():
            yield key, TOMBSTONE if value is None else Entry(value)
