"""The store's one SSTable writer: pure artifact build + effectful install.

Table building is split into two halves with very different rules:

* **Pure compute** — encoding blocks, building the filter, assembling the
  final file image — happens in :func:`build_table_artifact`, which
  touches *no* device, clock, cache or RNG.  It is a pure function from a
  record list to a :class:`TableArtifact` (the exact bytes the streaming
  reference builder in ``tests/reference`` writes, proven equivalent by
  test).  The sharding and merging helpers (:func:`split_records`,
  :func:`plan_split_points`, :func:`merge_sorted_runs`) are pure too.
* **Effects** — path allocation, ``device.create_file``, simulated-cost
  charges, cache traffic — happen only in the caller, in canonical key
  order, via :func:`install_artifact`.

Flush, bulk load and compaction all run the same plain loop over these
functions on the calling thread; nothing here is parallel (DESIGN.md
section 9).
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Iterable, List, Optional, Tuple

from repro.common.errors import ConfigError
from repro.filters.base import Filter, FilterBuilder
from repro.lsm.block import BlockBuilder
from repro.lsm.memtable import Entry
from repro.lsm.sstable import (
    _BLOCK_REF,
    _FOOTER,
    _MAGIC,
    BlockHandle,
    SSTable,
    SSTableReader,
)
from repro.storage.device import StorageDevice

_RECORD_HEADER = struct.Struct("<HBI")
_U32 = struct.Struct("<I")
_FLAG_TOMBSTONE = 0x01

#: A record as the builders move it: ``(key, value)`` with ``None``
#: marking a tombstone.
Record = Tuple[bytes, Optional[bytes]]


@dataclass
class TableArtifact:
    """The complete, effect-free result of building one SSTable.

    ``file_bytes`` is the exact file image; everything else is the
    metadata a live :class:`~repro.lsm.sstable.SSTable` handle needs, so
    installation never re-reads the file.
    """

    file_bytes: bytes
    index_entries: List[Tuple[bytes, BlockHandle]]
    min_key: bytes
    max_key: bytes
    num_entries: int
    size_bytes: int
    filter: Optional[Filter] = field(default=None, repr=False)


def _encode_records(records: List[Record]) -> List[bytes]:
    pack = _RECORD_HEADER.pack
    return [
        pack(len(key), _FLAG_TOMBSTONE, 0) + key if value is None
        else pack(len(key), 0, len(value)) + key + value
        for key, value in records
    ]


def _encode_block(encoded: List[bytes], lens: List[int]) -> bytes:
    count = len(encoded)
    offsets = list(accumulate(lens, initial=0))
    offsets[-1] = count  # reuse the running total slot for the count field
    body = b"".join(encoded) + struct.pack("<%dI" % (count + 1), *offsets)
    return body + _U32.pack(zlib.crc32(body))


def build_table_artifact(records: List[Record], block_size: int,
                         filter_builder: Optional[FilterBuilder]
                         ) -> TableArtifact:
    """Encode sorted records into one complete SSTable file image.

    The store's only table writer (flush, bulk load and compaction all
    build through it).  Byte-for-byte the file the streaming reference
    builder (``tests/reference``) writes for the same records (same
    block split points, same props/filter/index/footer layout);
    ``tests/lsm/test_sstable.py`` asserts the equivalence over
    randomized inputs.  Raises the same :class:`ConfigError` family for
    unsorted/duplicate/empty/oversized keys.
    """
    if not records:
        raise ConfigError("cannot finish an empty SSTable")
    keys = [key for key, _ in records]
    if not keys[0]:
        raise ConfigError("empty keys are not supported")
    if any(a >= b for a, b in zip(keys, keys[1:])):
        raise ConfigError("SSTable records must be added in ascending key order")
    if max(map(len, keys)) > 0xFFFF:
        raise ConfigError("key exceeds the u16 length field")

    encoded = _encode_records(records)
    lens = [len(data) for data in encoded]

    chunks: List[bytes] = []
    index_entries: List[Tuple[bytes, BlockHandle]] = []
    size = 0
    start = 0
    block_bytes = 0
    for i, record_len in enumerate(lens):
        block_bytes += record_len
        if block_bytes >= block_size:
            data = _encode_block(encoded[start:i + 1], lens[start:i + 1])
            index_entries.append((keys[i], BlockHandle(size, len(data))))
            chunks.append(data)
            size += len(data)
            start = i + 1
            block_bytes = 0
    if start < len(encoded):
        data = _encode_block(encoded[start:], lens[start:])
        index_entries.append((keys[-1], BlockHandle(size, len(data))))
        chunks.append(data)
        size += len(data)

    props = BlockBuilder(1 << 30)
    props.add(b"max_key", Entry(keys[-1]))
    props.add(b"min_key", Entry(keys[0]))
    props.add(b"num_entries", Entry(len(keys).to_bytes(8, "big")))
    props_data = props.finish()
    props_offset = size
    chunks.append(props_data)
    size += len(props_data)

    filt: Optional[Filter] = None
    filter_data = b""
    filter_offset = size
    if filter_builder is not None:
        filt = filter_builder.build(keys)
        from repro.filters.serialize import serialize_filter
        filter_data = serialize_filter(filt)
        chunks.append(filter_data)
        size += len(filter_data)

    index = BlockBuilder(1 << 30)
    for last_key, handle in index_entries:
        index.add(last_key, Entry(_BLOCK_REF.pack(handle.offset, handle.length)))
    index_data = index.finish()
    index_offset = size
    chunks.append(index_data)
    size += len(index_data)

    chunks.append(_FOOTER.pack(props_offset, len(props_data),
                               index_offset, len(index_data),
                               filter_offset, len(filter_data), _MAGIC))
    size += _FOOTER.size

    return TableArtifact(
        file_bytes=b"".join(chunks),
        index_entries=index_entries,
        min_key=keys[0],
        max_key=keys[-1],
        num_entries=len(keys),
        size_bytes=size,
        filter=filt,
    )


def install_artifact(device: StorageDevice, path: str,
                     artifact: TableArtifact) -> SSTable:
    """Write one artifact to the device and return its live handle.

    The only effectful step of a build: callers run it in canonical key
    order, so file numbering, device charges and stats are one
    deterministic sequence.
    """
    device.create_file(path, artifact.file_bytes)
    reader = SSTableReader(device, path,
                           index_entries=list(artifact.index_entries),
                           num_entries=artifact.num_entries)
    return SSTable(path=path, reader=reader, filter=artifact.filter,
                   min_key=artifact.min_key, max_key=artifact.max_key,
                   num_entries=artifact.num_entries,
                   size_bytes=artifact.size_bytes)


# ------------------------------------------------------------- sharding

def split_records(records: List[Record], block_size: int,
                  target_bytes: int) -> List[List[Record]]:
    """Split a sorted record run into per-table chunks.

    A table closes when its *finished-block* bytes (payload + per-record
    offset trailer + count + crc per block) reach ``target_bytes``,
    evaluated at block boundaries — exactly where a streaming build that
    closes tables on emitted bytes would cut (the reference builder in
    ``tests/reference`` is held to the same boundaries by test).
    """
    out: List[List[Record]] = []
    current: List[Record] = []
    block_bytes = 0
    block_records = 0
    emitted = 0
    header = _RECORD_HEADER.size
    for record in records:
        key, value = record
        current.append(record)
        block_bytes += header + len(key) + (0 if value is None else len(value))
        block_records += 1
        if block_bytes >= block_size:
            # Finished block: payload + u32 offsets + u32 count + u32 crc.
            emitted += block_bytes + 4 * block_records + 8
            block_bytes = 0
            block_records = 0
            if emitted >= target_bytes:
                out.append(current)
                current = []
                emitted = 0
    if current:
        out.append(current)
    return out


def shard_sorted_items(items: Iterable[Tuple[bytes, bytes]], block_size: int,
                       target_bytes: int) -> List[List[Record]]:
    """Validate and shard a pre-sorted bulk-load stream into table chunks."""
    records: List[Record] = []
    last_key = None
    for key, value in items:
        if last_key is not None and key <= last_key:
            raise ConfigError("bulk_load input must be sorted and unique")
        last_key = key
        records.append((key, value))
    return split_records(records, block_size, target_bytes)


def plan_split_points(tables, target_bytes: int) -> List[bytes]:
    """Key-space split points a compaction partitions its merge at.

    RocksDB-subcompaction-style: candidate boundaries are the input
    tables' min keys (cheap, already in memory, and guaranteed to fall
    between records), coalesced until each range is attributed roughly
    ``target_bytes`` of input.  Depends only on the input tables, so the
    partition — and with it every output table boundary — is a pure
    function of the merge's inputs.
    """
    if len(tables) < 2:
        return []
    starts = sorted({t.min_key for t in tables})[1:]
    sizes = sorted((t.min_key, t.size_bytes) for t in tables)
    points: List[bytes] = []
    attributed = 0
    i = 0
    for point in starts:
        while i < len(sizes) and sizes[i][0] < point:
            attributed += sizes[i][1]
            i += 1
        if attributed >= target_bytes:
            points.append(point)
            attributed = 0
    return points


def merge_sorted_runs(runs: List[List[Record]],
                      drop_tombstones: bool) -> List[Record]:
    """Merge sorted runs, newest (lowest index) first; newest value wins.

    Pure compute.  Shadowing is resolved before the tombstone drop,
    exactly like a streaming :func:`~repro.lsm.iterator.merge_entries`
    merge: a tombstone shadows older values even when it is itself
    dropped from the output.
    """
    if len(runs) == 1:
        if drop_tombstones:
            return [record for record in runs[0] if record[1] is not None]
        return list(runs[0])
    tagged = []
    extend = tagged.extend
    for priority, records in enumerate(runs):
        extend((key, priority, value) for key, value in records)
    # Timsort gallops over the pre-sorted runs; ties on key resolve by
    # priority (recency), and the value is never compared.
    tagged.sort()
    out: List[Record] = []
    append = out.append
    previous = None
    for key, priority, value in tagged:
        if key == previous:
            continue
        previous = key
        if drop_tombstones and value is None:
            continue
        append((key, value))
    return out
