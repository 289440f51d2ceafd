"""Memtable — the LSM-tree's only mutable storage object.

Keys map to :class:`Entry` records that distinguish values from delete
tombstones; both must flow to the SSTables so compaction can eventually
drop shadowed history (paper section 2.2).

A dict gives the point lookup and a sorted key list the in-order walk
for flush and range reads.  What a probe or an insert costs in simulated
time is the cost constants of :mod:`repro.lsm.options`, never this
structure.  The same class serves live (the tree's write buffer) and
frozen (:meth:`MemTable.copy`, what a snapshot reads).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.common.errors import ConfigError


@dataclass(frozen=True)
class Entry:
    """A memtable record: a value or a tombstone."""

    value: Optional[bytes]

    @property
    def is_tombstone(self) -> bool:
        """Whether this entry deletes the key."""
        return self.value is None


TOMBSTONE = Entry(None)


class MemTable:
    """Sorted in-memory write buffer with approximate size accounting.

    Readers run against the one writer without a lock, so a new key's
    entry is published in the dict *before* the key joins the sorted
    list (every listed key resolves), and iteration walks a copy of the
    list taken in one step (an insert lands wholly before or after it).
    """

    def __init__(self) -> None:
        self._entries: Dict[bytes, Entry] = {}
        self._keys: List[bytes] = []
        self._bytes = 0

    def __len__(self) -> int:
        return len(self._keys)

    @property
    def approximate_bytes(self) -> int:
        """Rough payload size, used for the flush threshold."""
        return self._bytes

    def copy(self) -> "MemTable":
        """A memtable holding this one's current entries; later writes
        to either do not show in the other."""
        clone = MemTable()
        clone._keys = self._keys[:]
        entries = self._entries
        clone._entries = {key: entries[key] for key in clone._keys}
        clone._bytes = self._bytes
        return clone

    # ----------------------------------------------------------------- writes

    def put(self, key: bytes, value: bytes) -> None:
        """Insert or overwrite ``key`` with ``value``."""
        if value is None:
            raise ConfigError("use delete() for tombstones, not put(None)")
        self._upsert(key, Entry(bytes(value)))

    def delete(self, key: bytes) -> None:
        """Record a tombstone for ``key``."""
        self._upsert(key, TOMBSTONE)

    def put_many(self, pairs) -> None:
        """Batch upsert of ``(key, value_or_None)`` pairs, in order.

        ``None`` values record tombstones.  Equivalent to the per-record
        calls; the batch entry point exists so group-committed writes
        land through one call, mirroring ``LSMTree.put_many``.
        """
        upsert = self._upsert
        for key, value in pairs:
            upsert(key, TOMBSTONE if value is None else Entry(bytes(value)))

    def _upsert(self, key: bytes, entry: Entry) -> None:
        if not key:
            raise ConfigError("empty keys are not supported")
        old = self._entries.get(key)
        self._entries[key] = entry
        if old is None:
            insort(self._keys, key)
            self._bytes += len(key) + self._entry_bytes(entry) + 16
        else:
            self._bytes += self._entry_bytes(entry) - self._entry_bytes(old)

    # ------------------------------------------------------------------ reads

    def get(self, key: bytes) -> Optional[Entry]:
        """The entry for ``key`` (value or tombstone), or None if absent."""
        return self._entries.get(key)

    def max_key(self) -> Optional[bytes]:
        """The largest key held (tombstones included), None when empty."""
        keys = self._keys
        return keys[-1] if keys else None

    def items(self) -> Iterator[Tuple[bytes, Entry]]:
        """All entries in key order (flush path)."""
        return self.items_from(b"")

    def items_from(self, low: bytes) -> Iterator[Tuple[bytes, Entry]]:
        """Entries with key >= ``low`` in key order (range queries)."""
        keys = self._keys[:]
        entries = self._entries
        for index in range(bisect_left(keys, low), len(keys)):
            key = keys[index]
            yield key, entries[key]

    @staticmethod
    def _entry_bytes(entry: Entry) -> int:
        return len(entry.value) if entry.value is not None else 0
