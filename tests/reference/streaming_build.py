"""Streaming table builds: the serial streaming writer and its callers.

What each oracle proves against ``repro.lsm.table_build`` (the store's
one table writer):

* :class:`SSTableBuilder` — **bytes**.  Streams records into a file one
  block at a time; ``build_table_artifact`` must emit the identical file
  image, and ``split_records`` must cut where a loop closing tables on
  ``estimated_bytes`` cuts.  Also the flush oracle: a memtable streamed
  through it is byte-identical to the file ``LSMTree.flush`` installs.
* :func:`bulk_load_streaming` — **bytes**, whole device.  One streaming
  builder at a time over the sorted input; ``LSMTree.bulk_load`` leaves
  the same files, clock and device stats.
* :func:`merge_tables_streaming` — **logical content**.  A heap merge fed
  straight into streaming builders; the store's merge may cut
  tables at different boundaries, so only the recovered key/value state
  must agree.  :func:`use_streaming_merges` routes a tree's compactions
  through it.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from repro.common.errors import ConfigError
from repro.filters.base import FilterBuilder
from repro.lsm.block import BlockBuilder
from repro.lsm.iterator import merge_entries
from repro.lsm.memtable import Entry
from repro.lsm.sstable import (
    _BLOCK_REF,
    _FOOTER,
    _MAGIC,
    BlockHandle,
    SSTable,
    SSTableReader,
)
from repro.lsm.version import VersionEdit
from repro.storage.device import StorageDevice


class SSTableBuilder:
    """Streams sorted records into an SSTable file on the device."""

    def __init__(self, device: StorageDevice, path: str, block_size: int,
                 filter_builder: Optional[FilterBuilder] = None) -> None:
        self.device = device
        self.path = path
        self.block_size = block_size
        self.filter_builder = filter_builder
        self._chunks: List[bytes] = []
        self._size = 0
        self._current = BlockBuilder(block_size)
        self._index_entries: List[Tuple[bytes, BlockHandle]] = []
        self._keys: List[bytes] = []
        self._min_key: Optional[bytes] = None
        self._max_key: Optional[bytes] = None
        self._finished = False

    def add(self, key: bytes, entry: Entry) -> None:
        """Append a record; keys must arrive in ascending order."""
        if self._finished:
            raise ConfigError("builder already finished")
        if self._max_key is not None and key <= self._max_key:
            raise ConfigError("SSTable records must be added in ascending key order")
        self._current.add(key, entry)
        self._keys.append(key)
        if self._min_key is None:
            self._min_key = key
        self._max_key = key
        if self._current.is_full:
            self._flush_block()

    @property
    def num_entries(self) -> int:
        """Records added so far."""
        return len(self._keys)

    @property
    def estimated_bytes(self) -> int:
        """Bytes emitted so far (flush-threshold heuristic)."""
        return self._size

    def finish(self) -> "SSTable":
        """Write the file and return the in-memory table handle."""
        if self._finished:
            raise ConfigError("builder already finished")
        if not self._keys:
            raise ConfigError("cannot finish an empty SSTable")
        self._finished = True
        if self._current.num_records:
            self._flush_block()

        props = BlockBuilder(1 << 30)
        props.add(b"max_key", Entry(self._max_key))
        props.add(b"min_key", Entry(self._min_key))
        props.add(b"num_entries", Entry(len(self._keys).to_bytes(8, "big")))
        props_data = props.finish()
        props_offset = self._size
        self._emit(props_data)

        # Build and persist the filter block, so reopening the table never
        # needs to re-derive the filter from its keys (RocksDB-style).
        filt = self.filter_builder.build(self._keys) if self.filter_builder else None
        filter_offset = self._size
        filter_data = b""
        if filt is not None:
            from repro.filters.serialize import serialize_filter
            filter_data = serialize_filter(filt)
            self._emit(filter_data)

        index = BlockBuilder(1 << 30)
        for last_key, handle in self._index_entries:
            index.add(last_key, Entry(_BLOCK_REF.pack(handle.offset, handle.length)))
        index_data = index.finish()
        index_offset = self._size
        self._emit(index_data)

        self._emit(_FOOTER.pack(props_offset, len(props_data),
                                index_offset, len(index_data),
                                filter_offset, len(filter_data), _MAGIC))
        self.device.create_file(self.path, b"".join(self._chunks))

        reader = SSTableReader(
            self.device, self.path,
            index_entries=list(self._index_entries),
            num_entries=len(self._keys),
        )
        return SSTable(
            path=self.path,
            reader=reader,
            filter=filt,
            min_key=self._min_key,
            max_key=self._max_key,
            num_entries=len(self._keys),
            size_bytes=self._size,
        )

    def _flush_block(self) -> None:
        data = self._current.finish()
        handle = BlockHandle(self._size, len(data))
        self._index_entries.append((self._current.last_key, handle))
        self._emit(data)
        self._current = BlockBuilder(self.block_size)

    def _emit(self, data: bytes) -> None:
        self._chunks.append(data)
        self._size += len(data)


def _builder_for(owner) -> SSTableBuilder:
    """A builder on the next file of ``owner`` (an LSMTree or Compactor)."""
    return SSTableBuilder(owner.device, owner._allocate_path(),
                          owner.options.block_size_bytes,
                          owner.options.filter_builder)


def bulk_load_streaming(db, items: Iterable[Tuple[bytes, bytes]]) -> None:
    """``LSMTree.bulk_load`` as one streaming builder at a time."""
    tables: List[SSTable] = []
    builder = None
    last_key = None
    total_bytes = 0
    for key, value in items:
        if last_key is not None and key <= last_key:
            raise ConfigError("bulk_load input must be sorted and unique")
        last_key = key
        if builder is None:
            builder = _builder_for(db)
        builder.add(key, Entry(value))
        if builder.estimated_bytes >= db.options.sstable_target_bytes:
            tables.append(builder.finish())
            total_bytes += tables[-1].size_bytes
            builder = None
    if builder is not None and builder.num_entries:
        tables.append(builder.finish())
        total_bytes += tables[-1].size_bytes
    if not tables:
        return
    level = db._deepest_fitting_level(total_bytes)
    db.versions.install(VersionEdit(level, tables, []))
    db._commit_version()


def merge_tables_streaming(compactor, tables: List[SSTable],
                           drop_tombstones: bool) -> List[SSTable]:
    """``Compactor._merge_tables`` as a heap merge into streaming builders."""
    sources = [t.reader.iterate_from(b"", compactor.cache) for t in tables]
    outputs: List[SSTable] = []
    builder = None
    for key, entry in merge_entries(sources):
        if drop_tombstones and entry.is_tombstone:
            continue
        if builder is None:
            builder = _builder_for(compactor)
        builder.add(key, entry)
        if builder.estimated_bytes >= compactor.options.sstable_target_bytes:
            outputs.append(builder.finish())
            builder = None
    if builder is not None and builder.num_entries:
        outputs.append(builder.finish())
    return outputs


def use_streaming_merges(db) -> None:
    """Route every foreground compaction of ``db`` through the oracle."""
    compactor = db._compactor
    compactor._merge_tables = (
        lambda tables, drop_tombstones:
        merge_tables_streaming(compactor, tables, drop_tombstones))
