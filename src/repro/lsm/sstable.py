"""SSTable files: immutable sorted tables with index, properties and filter.

Layout on the simulated device::

    [data block]*  [properties block]  [filter block]  [index block]  [footer]

The index block maps each data block's last key to its (offset, length);
index, properties and the filter are read once at open and pinned in
memory, mirroring RocksDB's pinned index/filter blocks — the paper's
timing asymmetry comes from *data* block reads only, and that is the only
read path that goes through the page cache here.

Files are written by :mod:`repro.lsm.table_build`
(``build_table_artifact`` + ``install_artifact``), which builds the
filter from the table's keys and persists it into the filter block
(:mod:`repro.filters.serialize`); it is reloaded from there on reopen —
no key re-scan needed.
"""

from __future__ import annotations

import struct
from bisect import bisect_left
from dataclasses import dataclass, field as dc_field
from typing import Iterator, List, Optional, Tuple

from repro.common.errors import CorruptionError, StorageError
from repro.filters.base import Filter, RangeFilter
from repro.lsm.block import Block
from repro.lsm.memtable import Entry
from repro.lsm.options import BLOCK_SEARCH_COST_US, INDEX_LOOKUP_COST_US
from repro.storage.device import MappedRegion, StorageDevice
from repro.storage.page_cache import DecodedKey, PageCache

_FOOTER = struct.Struct("<QIQIQIQ")
_MAGIC = 0x5355524646545245  # "SURFFTRE"
_BLOCK_REF = struct.Struct("<QI")


@dataclass(frozen=True)
class BlockHandle:
    """Location of one data block inside the file."""

    offset: int
    length: int


class SSTableReader:
    """Query-side view: pinned index + page-cached data block reads.

    Each reader maps its file at construction (:class:`MappedRegion`,
    the simulated ``mmap``); data-block decodes borrow zero-copy views
    of the mapping, and the region is unmapped via :meth:`unmap` only
    when the table retires — deferred past the last snapshot pin.
    """

    def __init__(self, device: StorageDevice, path: str,
                 index_entries: Optional[List[Tuple[bytes, BlockHandle]]] = None,
                 num_entries: Optional[int] = None) -> None:
        self.device = device
        self.path = path
        # Decoded props/footer pinned at open (None when the reader was
        # handed its index by the table writer and never read the file).
        self._props: Optional[Block] = None
        self._filter_handle: Optional[BlockHandle] = None
        if index_entries is None:
            index_entries, num_entries = self._load_metadata()
        self._index = index_entries
        #: Each data block's last key, in block order: the block that may
        #: hold a key is the first whose last key is >= it.
        self._last_keys = [key for key, _ in index_entries]
        self.num_entries = num_entries or 0
        try:
            self.region: Optional[MappedRegion] = device.map_file(path)
        except StorageError:
            self.region = None

    @classmethod
    def open(cls, device: StorageDevice, path: str) -> "SSTableReader":
        """Open an existing table, reading its footer/props/index once.

        The decoded index, properties and filter location are pinned on the
        reader, so later metadata queries (:meth:`properties`,
        :meth:`load_filter`) reuse them instead of re-reading and
        re-decoding the file.
        """
        return cls(device, path)

    def _load_metadata(self) -> Tuple[List[Tuple[bytes, BlockHandle]], int]:
        size = self.device.file_size(self.path)
        if size < _FOOTER.size:
            raise CorruptionError(f"{self.path!r} too small to be an SSTable")
        footer = self.device.read(self.path, size - _FOOTER.size, _FOOTER.size)
        (props_off, props_len, index_off, index_len,
         filter_off, filter_len, magic) = _FOOTER.unpack(footer)
        if magic != _MAGIC:
            raise CorruptionError(f"{self.path!r} has bad magic {magic:#x}")
        props = Block(self.device.read(self.path, props_off, props_len))
        num_entry = props.get(b"num_entries")
        if num_entry is None:
            raise CorruptionError(f"{self.path!r} missing num_entries property")
        num_entries = int.from_bytes(num_entry.value, "big")
        index_block = Block(self.device.read(self.path, index_off, index_len))
        entries: List[Tuple[bytes, BlockHandle]] = []
        for key, ref in index_block.records():
            entries.append((key, BlockHandle(*_BLOCK_REF.unpack(ref))))
        self._props = props
        self._filter_handle = BlockHandle(filter_off, filter_len)
        return entries, num_entries

    def properties(self) -> Tuple[bytes, bytes]:
        """(min_key, max_key), from the props block pinned at open.

        A reader handed its index by the table writer never read the
        file; it loads the metadata here on first use (recovery path,
        off the measured query cycle).
        """
        if self._props is None:
            self._load_metadata()
        min_entry = self._props.get(b"min_key")
        max_entry = self._props.get(b"max_key")
        if min_entry is None or max_entry is None:
            raise CorruptionError(f"{self.path!r} missing key-range properties")
        return min_entry.value, max_entry.value

    def get(self, key: bytes, cache: PageCache) -> Optional[Entry]:
        """Point lookup through the page cache.

        Returns the entry (value or tombstone) or None.  This is the I/O
        the attack's timing oracle observes: exactly one data block read
        when the filter (checked by the caller) passed the key.

        Charges go to the *cache's* device clock: the cache is the read
        context (a snapshot reading through its private cache charges
        its own clock), and for the live store it is the same object as
        ``self.device.clock``.
        """
        return self.lookup(key, cache)[0]

    def lookup(self, key: bytes, cache: PageCache
               ) -> Tuple[Optional[Entry], Optional[Tuple[bytes, bytes]],
                          Optional[Block], Optional[DecodedKey]]:
        """:meth:`get`, plus what serves the next keys of a run from the
        same block (``read_path.read_points``): the block's key span
        ``(low, high)`` — the keys ``low < k <= high`` that would land
        in it —, the decoded block, and its cache key for
        :meth:`PageCache.repeat_hit`.  All None when ``key`` is past the
        last block (nothing is read).
        """
        clock = cache.device.clock
        clock.now_us += INDEX_LOOKUP_COST_US
        last_keys = self._last_keys
        block_index = bisect_left(last_keys, key)
        if block_index == len(last_keys):
            return None, None, None, None
        path = self.path
        handle = self._index[block_index][1]
        offset, length = handle.offset, handle.length
        block_key = (path, self.device.file_generation(path), offset, length)
        block = cache.read_decoded(path, offset, length, Block, self.region)
        clock.now_us += BLOCK_SEARCH_COST_US
        span = (last_keys[block_index - 1] if block_index else b"",
                last_keys[block_index])
        return block.get(key), span, block, block_key

    def iterate_from(self, low: bytes, cache: PageCache
                     ) -> Iterator[Tuple[bytes, Entry]]:
        """Records with key >= ``low`` in order, reading blocks lazily."""
        start = bisect_left(self._last_keys, low)
        for bi in range(start, len(self._index)):
            handle = self._index[bi][1]
            block = cache.read_decoded(self.path, handle.offset,
                                       handle.length, Block,
                                       region=self.region)
            index = block.lower_bound(low) if bi == start else 0
            for record_index in range(index, len(block)):
                yield block.record_at(record_index)

    def records(self, cache: PageCache
                ) -> List[Tuple[bytes, Optional[bytes]]]:
        """Every record of the table, ``(key, value)`` with ``None`` for
        a tombstone: :meth:`iterate_from` ``b""``'s records, read the
        same way — every data block through ``cache.read_decoded``, in
        block order, so charges, cache stats and LRU order are its —
        and decoded with one :meth:`Block.records` pass per block.
        Compaction's input read and recovery's filter rebuild.
        """
        out: List[Tuple[bytes, Optional[bytes]]] = []
        for _, handle in self._index:
            out += cache.read_decoded(self.path, handle.offset,
                                      handle.length, Block,
                                      region=self.region).records()
        return out

    def load_filter(self):
        """Deserialize the table's persisted filter block, or None.

        Uses the filter location pinned at open (loading the metadata
        first for a reader that never read the file, like
        :meth:`properties`).  The live filter is pinned in memory by the
        caller after.
        """
        if self._filter_handle is None:
            self._load_metadata()
        handle = self._filter_handle
        if not handle.length:
            return None
        from repro.filters.serialize import deserialize_filter
        return deserialize_filter(
            self.device.read(self.path, handle.offset, handle.length))

    def rebind(self, device: StorageDevice) -> "SSTableReader":
        """Point future I/O charges at ``device``.

        Background compaction builds tables over a silent device view;
        before installing them into the serving version, the db rebinds
        them to the real device so foreground reads charge the real
        clock.  The mapping is shared state and needs no rebinding.
        """
        self.device = device
        return self

    def unmap(self) -> None:
        """Retire the mapping: unmap now, or at the last reader unpin."""
        if self.region is not None:
            self.region.mark_doomed()

    @property
    def num_blocks(self) -> int:
        """Number of data blocks."""
        return len(self._index)


@dataclass
class SSTable:
    """In-memory handle for one table: reader + filter + key-range metadata."""

    path: str
    reader: SSTableReader
    filter: Optional[Filter]
    min_key: bytes
    max_key: bytes
    num_entries: int
    size_bytes: int
    #: ``filter`` when it can answer range probes, else None: point-only
    #: filters (plain Bloom) can never prune a range read.  Resolved once
    #: at construction so the per-query source-planning loop
    #: (:func:`repro.lsm.read_path.plan_range_sources`) reads a plain
    #: attribute instead of re-deriving the capability check.
    range_filter: Optional[Filter] = dc_field(init=False, default=None)

    def __post_init__(self) -> None:
        filt = self.filter
        if isinstance(filt, RangeFilter):
            self.range_filter = filt

    def covers(self, key: bytes) -> bool:
        """Whether ``key`` falls within this table's key range."""
        return self.min_key <= key <= self.max_key

    def overlaps(self, low: bytes, high: bytes) -> bool:
        """Whether the table's range intersects ``[low, high]``."""
        return not (high < self.min_key or low > self.max_key)
