"""K-way merging iterator with newest-wins shadowing, and the DB cursor.

Used by range queries (merging the memtable with every overlapping table)
and by compaction (merging input tables).  Sources are supplied newest
first; when several sources carry the same key, only the newest entry
survives — including tombstones, which shadow older values and are dropped
by the caller where appropriate.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Iterator, List, Optional, Tuple

from repro.common.errors import LSMError
from repro.lsm.memtable import Entry
from repro.lsm.options import RANGE_NEXT_COST_US


def merge_entries(sources: List[Iterable[Tuple[bytes, Entry]]]
                  ) -> Iterator[Tuple[bytes, Entry]]:
    """Merge sorted (key, entry) streams; ``sources[0]`` is newest.

    ``heapq.merge``-style k-way heap with these explicit semantics:

    * **Heap order** is ``(key, source index)`` — never the entry, so
      entries need not be comparable.  Since each source yields strictly
      ascending keys, every heap element is unique and pops are total.
    * **Newest wins**: when several sources carry the same key, the
      lowest source index (the newest run) pops first and is emitted;
      the older duplicates pop next and are dropped by the
      ``previous_key`` shadow check.
    * **Tombstones shadow**: a newer tombstone wins the tie like any
      entry and *is emitted* — deciding whether a deletion is surfaced
      or dropped is the caller's business (range reads drop them,
      compaction keeps them above the bottom level).

    Pull schedule (the simulated-time contract range reads rely on):
    one pull per source up front, in source order; then exactly one pull
    — a refill of the popped source — per element popped.  Abandoning
    the generator stops all pulls.
    """
    heap: List[Tuple[bytes, int, Tuple[bytes, Entry], Iterator]] = []
    for priority, source in enumerate(sources):
        iterator = iter(source)
        first = next(iterator, None)
        if first is not None:
            heap.append((first[0], priority, first, iterator))
    heapq.heapify(heap)
    previous_key = None
    heapreplace, heappop = heapq.heapreplace, heapq.heappop
    while heap:
        key, priority, item, iterator = heap[0]
        nxt = next(iterator, None)
        if nxt is not None:
            heapreplace(heap, (nxt[0], priority, nxt, iterator))
        else:
            heappop(heap)
        if key == previous_key:
            continue  # shadowed by a newer source
        previous_key = key
        yield item


class DBIterator:
    """Forward cursor over a merged, tombstone-free view of the tree.

    Positions on the first live key >= ``low`` and advances with
    :meth:`next`.  The cursor reads one
    :class:`~repro.lsm.read_path.ReadView` and charges each step to it;
    its pinned version cannot move or retire its tables under it
    (RocksDB iterators pinned to a superseded version).  The step after
    that view closes — or after the tree under it closes — raises
    ``DBClosedError``.  :meth:`close` ends the cursor; ``on_close`` runs
    once, when the cursor exhausts or closes: the live tree's cursor
    closes the view it opened for it, a snapshot's leaves the snapshot
    open.
    """

    def __init__(self, merged: Iterable[Tuple[bytes, Entry]], view,
                 high: Optional[bytes] = None, on_close=None) -> None:
        #: The newest-wins (key, entry) stream, tombstones included
        #: (:func:`merge_entries`).
        self._merged = iter(merged)
        self._view = view
        self._high = high
        self._on_close = on_close
        self._current: Optional[Tuple[bytes, bytes]] = None
        self._advance()

    def close(self) -> None:
        """End the cursor and run ``on_close`` (idempotent)."""
        self._current = None
        on_close, self._on_close = self._on_close, None
        if on_close is not None:
            on_close()

    def _advance(self) -> None:
        view = self._view
        view._check_open()
        for key, entry in self._merged:
            view.charge_cost(RANGE_NEXT_COST_US)
            if self._high is not None and key > self._high:
                break
            if entry.is_tombstone:
                continue
            self._current = (key, entry.value)
            return
        self._current = None
        self.close()

    @property
    def valid(self) -> bool:
        """Whether the cursor points at a live entry."""
        return self._current is not None

    @property
    def key(self) -> bytes:
        """Key under the cursor."""
        if self._current is None:
            raise LSMError("iterator is exhausted")
        return self._current[0]

    @property
    def value(self) -> bytes:
        """Value under the cursor."""
        if self._current is None:
            raise LSMError("iterator is exhausted")
        return self._current[1]

    def next(self) -> None:
        """Advance to the next live entry."""
        if self._current is None:
            raise LSMError("iterator is exhausted")
        self._advance()

    def __iter__(self) -> Iterator[Tuple[bytes, bytes]]:
        while self.valid:
            item = (self.key, self.value)
            self.next()
            yield item
