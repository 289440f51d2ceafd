"""LRU page cache over the simulated storage device.

Models the OS page cache that the paper's attack has to fight: once a
false-positive query drags an SSTable block into the cache, re-querying the
same key is served from memory and no longer distinguishable from a negative
key.  The attacker relies on *legitimate background I/O* evicting those
blocks between attack iterations (section 9); the
:class:`~repro.storage.background.BackgroundLoad` generator drives that
eviction against this cache.

The paper's setup caps RocksDB's DRAM at 2 GB via cgroups while the dataset
is ~50 GB; the default capacity here is likewise a small fraction of a
default experiment's on-device bytes.

Beside the raw pages, the cache keeps a bounded LRU of *decoded* objects
(parsed SSTable blocks) keyed by the byte range they were decoded from.  A
decoded entry is only served while every underlying page is still resident,
and serving it charges the simulated clock exactly what re-reading those
pages would have charged — the decoded layer saves real (wall-clock) parse
and checksum work without perturbing simulated time by a single
microsecond.  Entries are invalidated together with their pages (eviction,
``invalidate_file``, ``clear``), so compaction can never serve a stale
block.

Cache identity is **version-scoped**: every key includes the file's device
generation (bumped on create/rename/delete/append), so a path recycled by
a newer version can never be answered from the previous file's blocks —
the stale entries simply stop being addressable and age out of the LRU.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Dict, Optional, Set, Tuple

from repro.common.errors import ConfigError
from repro.storage.device import MappedRegion, StorageDevice

#: Simulated cost of serving one cached page (DRAM copy + lookup).
CACHE_HIT_COST_US = 0.8

#: Page key: (path, generation, block_index).
PageKey = Tuple[str, int, int]
#: Decoded key: (path, generation, offset, length).
DecodedKey = Tuple[str, int, int, int]


@dataclass
class CacheStats:
    """Hit/miss counters; the idealized attack and tests read these."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    #: Decoded-object layer counters (wall-clock optimization only; the
    #: simulated charges of a decoded hit equal those of the page hits it
    #: stands in for).
    decoded_hits: int = 0
    decoded_misses: int = 0

    @property
    def lookups(self) -> int:
        """Total lookups."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache."""
        return self.hits / self.lookups if self.lookups else 0.0


class PageCache:
    """Capacity-bounded LRU cache of device blocks.

    Keys are ``(path, generation, block_index)`` triples; values are
    zero-copy views of the device file image (the simulated analogue of
    page-cache pages referencing the buffer cache).  All LSM reads funnel
    through :meth:`read`, which charges either a DRAM-scale hit cost or a
    full device read on miss.

    ``decoded_capacity`` bounds the decoded-object side table (entries, not
    bytes); ``None`` picks a default proportional to the page capacity and
    ``0`` disables the layer entirely (every :meth:`read_decoded` then
    decodes afresh, byte-for-byte what a plain :meth:`read` caller did).

    Background churn (:meth:`displace`) adds foreign pages that nothing
    ever reads.  The survivors of a wait that overflows the cache are a
    count at the LRU front (older than every entry, so evicted first and
    in one arithmetic step), not entries: :meth:`__len__` and
    :attr:`used_bytes` include them, the page LRU holds only what was
    read or churned since.

    Threading: a reentrant lock serializes every structural operation
    (LRU order, insert, eviction, invalidation).  Two threads reach the
    cache: the one that serves requests (the wire server's event loop,
    or the caller in-process) and the background compactor, which only
    invalidates the files it deletes.  Pure membership probes
    (:meth:`contains`, :meth:`contains_decoded`) stay lock-free — a racy
    answer there is at worst stale, never corrupting.  *Determinism*
    additionally needs a deterministic access order: all reads and all
    churn come from the serving thread.
    """

    def __init__(self, device: StorageDevice, capacity_bytes: int,
                 decoded_capacity: Optional[int] = None) -> None:
        if capacity_bytes < device.model.block_size:
            raise ConfigError(
                f"page cache capacity {capacity_bytes} smaller than one block "
                f"({device.model.block_size})"
            )
        if decoded_capacity is None:
            decoded_capacity = max(64, capacity_bytes // device.model.block_size)
        if decoded_capacity < 0:
            raise ConfigError(
                f"decoded capacity must be non-negative, got {decoded_capacity}"
            )
        self.device = device
        self.capacity_bytes = capacity_bytes
        self.decoded_capacity = decoded_capacity
        self._pages: "OrderedDict[PageKey, memoryview]" = OrderedDict()
        self._bytes = 0
        # Decoded objects keyed by (path, gen, offset, length), plus a
        # reverse index from each underlying page to the decoded keys built
        # on it, so page eviction can invalidate dependents in O(dependents).
        self._decoded: "OrderedDict[DecodedKey, object]" = OrderedDict()
        self._decoded_by_page: Dict[PageKey, Set[DecodedKey]] = {}
        # For displace(): one zero page per size, the next foreign number.
        self._zero_pages: Dict[int, memoryview] = {}
        self._next_foreign = 0
        # The foreign pages a full churn left, as one run of ``_front``
        # pages of ``_front_size`` bytes ahead of every entry in _pages
        # (they are older than anything read since).
        self._front = 0
        self._front_size = 0
        self.stats = CacheStats()
        self._lock = threading.RLock()
        #: The device block size, clock and generation map are fixed for
        #: the device's life; bound here to keep the per-read hot paths
        #: free of attribute chains and method frames.
        self._block_size = device.model.block_size
        self._clock = device.clock
        self._generation_of = device.generation_map().get

    # ----------------------------------------------------------------- access

    def read(self, path: str, offset: int, length: int) -> bytes:
        """Read a byte range through the cache, block by block.

        A zero-length read returns ``b""`` immediately: it touches no
        device block, charges no simulated time, and records no stats.
        """
        if length == 0:
            return b""
        block_size = self._block_size
        first = offset // block_size
        last = (offset + length - 1) // block_size
        chunks = []
        for block_index in range(first, last + 1):
            chunks.append(self.read_block(path, block_index))
        blob = b"".join(chunks)
        start = offset - first * block_size
        return blob[start : start + length]

    def read_block(self, path: str, block_index: int) -> memoryview:
        """Read one block, filling the cache on miss.

        Returns a zero-copy view of the block (bytes-like; hash/compare
        like the bytes it aliases).
        """
        with self._lock:
            key = (path, self.device.file_generation(path), block_index)
            cached = self._pages.get(key)
            if cached is not None:
                self._pages.move_to_end(key)
                self.stats.hits += 1
                self.device.clock.charge(CACHE_HIT_COST_US)
                return cached
            self.stats.misses += 1
            block = self.device.read_block_view(path, block_index)
            self._insert(key, block)
            return block

    def read_decoded(self, path: str, offset: int, length: int,
                     decode: Callable[[bytes], object],
                     region: Optional[MappedRegion] = None) -> object:
        """Read a byte range and return it decoded, caching the result.

        On a decoded hit (entry present *and* all underlying pages still
        resident) this charges the clock and updates page stats/LRU order
        exactly as the equivalent :meth:`read` would, then skips the
        decode.  Any other case faults the pages in through
        :meth:`read_block` (charge-identical to :meth:`read`) and
        decodes — from ``region``'s zero-copy view of the byte range
        when a mapping is supplied (data blocks usually straddle two
        device blocks, which block-joining would have to copy), else
        from the joined page bytes.  The simulated-time trace is
        identical whether this layer is enabled, disabled, or thrashing,
        and whether or not a region is used.

        The hit path is the point-read kernel's per-key I/O (a cached
        data block per filter-passing probe), so it calls no method but
        the LRU's own: per page, in page order, one ``move_to_end``, one
        hit and one ``CACHE_HIT_COST_US`` added to the clock.

        A zero-length read decodes ``b""`` and, like :meth:`read`,
        touches no page, charges nothing and records no stats.
        """
        if length == 0:
            return decode(b"")
        gen = self._generation_of(path, 0)
        key = (path, gen, offset, length)
        block_size = self._block_size
        first = offset // block_size
        last = (offset + length - 1) // block_size
        with self._lock:
            obj = self._decoded.get(key)
            if obj is not None:
                pages = self._pages
                stop = last + 1
                for block_index in range(first, stop):
                    if (path, gen, block_index) not in pages:
                        break
                else:
                    move = pages.move_to_end
                    clock = self._clock
                    for block_index in range(first, stop):
                        move((path, gen, block_index))
                        clock.now_us += CACHE_HIT_COST_US
                    stats = self.stats
                    stats.hits += stop - first
                    self._decoded.move_to_end(key)
                    stats.decoded_hits += 1
                    return obj
                # Some page was evicted under the decoded entry: drop it
                # and rebuild through the ordinary (charged) read path.
                self._drop_decoded(key)
            self.stats.decoded_misses += 1
            if region is not None and not region.closed \
                    and region.generation == gen:
                # Fault the pages in (same charges/stats/LRU as read()),
                # then decode straight off the mapping — zero copies.
                for block_index in range(first, last + 1):
                    self.read_block(path, block_index)
                obj = decode(region.view(offset, length))
            else:
                obj = decode(self.read(path, offset, length))
            if self.decoded_capacity:
                self._insert_decoded(key, obj)
            return obj

    def read_decoded_many(self, requests) -> list:
        """Batched :meth:`read_decoded`: one lock acquisition for the lot.

        ``requests`` is a sequence of ``(path, offset, length, decode,
        region)`` tuples served strictly in order, each with semantics
        identical to a :meth:`read_decoded` call — the same charges,
        stats updates and LRU movement, in the same order — so the
        simulated-time trace cannot tell the two apart.  A caller that
        knows all its reads upfront saves the per-call lock round trips
        and method dispatch.  No read path calls it today (range reads
        pull one block at a time through the heap merge); it stays until
        the e2e tracer stops pinning it (ROADMAP item 2(c)).
        """
        out = []
        append = out.append
        generation_of = self.device.file_generation
        block_size = self._block_size
        decoded = self._decoded
        decoded_get = decoded.get
        decoded_move = decoded.move_to_end
        pages = self._pages
        pages_move = pages.move_to_end
        stats = self.stats
        charge = self.device.clock.charge
        # Counter deltas accumulate locally and flush once before the
        # lock drops: nothing can observe the stats mid-batch (every
        # reader takes the lock), and attribute stores are the single
        # largest non-charge cost of a batched seek.
        hits = decoded_hits = decoded_misses = 0
        with self._lock:
            for path, offset, length, decode, region in requests:
                if length == 0:
                    append(decode(b""))
                    continue
                gen = generation_of(path)
                key = (path, gen, offset, length)
                obj = decoded_get(key)
                if obj is not None:
                    first = offset // block_size
                    last = (offset + length - 1) // block_size
                    if first == last:
                        page_key = (path, gen, first)
                        if page_key in pages:
                            pages_move(page_key)
                            hits += 1
                            charge(CACHE_HIT_COST_US)
                            decoded_move(key)
                            decoded_hits += 1
                            append(obj)
                            continue
                    elif last == first + 1:
                        # SSTable blocks usually straddle two device
                        # pages; spell the pair out to skip the listcomp.
                        page_key = (path, gen, first)
                        page_key2 = (path, gen, last)
                        if page_key in pages and page_key2 in pages:
                            pages_move(page_key)
                            hits += 2
                            charge(CACHE_HIT_COST_US)
                            pages_move(page_key2)
                            charge(CACHE_HIT_COST_US)
                            decoded_move(key)
                            decoded_hits += 1
                            append(obj)
                            continue
                    else:
                        page_keys = [(path, gen, block_index)
                                     for block_index in range(first, last + 1)]
                        if all(pk in pages for pk in page_keys):
                            for page_key in page_keys:
                                pages_move(page_key)
                                hits += 1
                                charge(CACHE_HIT_COST_US)
                            decoded_move(key)
                            decoded_hits += 1
                            append(obj)
                            continue
                    # A page under the entry was evicted: drop it and
                    # rebuild through the ordinary (charged) read path.
                    self._drop_decoded(key)
                decoded_misses += 1
                if region is not None and not region.closed \
                        and region.generation == gen:
                    first = offset // block_size
                    last = (offset + length - 1) // block_size
                    for block_index in range(first, last + 1):
                        self.read_block(path, block_index)
                    obj = decode(region.view(offset, length))
                else:
                    obj = decode(self.read(path, offset, length))
                if self.decoded_capacity:
                    self._insert_decoded(key, obj)
                append(obj)
            stats.hits += hits
            stats.decoded_hits += decoded_hits
            stats.decoded_misses += decoded_misses
        return out

    def contains(self, path: str, block_index: int) -> bool:
        """Whether a block is currently cached (no cost, no LRU touch)."""
        return (path, self.device.file_generation(path), block_index) \
            in self._pages

    def contains_decoded(self, path: str, offset: int, length: int) -> bool:
        """Whether a decoded entry is present (no cost, no LRU touch)."""
        return (path, self.device.file_generation(path), offset, length) \
            in self._decoded

    # -------------------------------------------------------------- churning

    def displace(self, count: int, size: int) -> None:
        """Churn the cache as ``count`` foreign ``size``-byte pages would.

        Legitimate traffic reading unrelated files pushes the attacker's
        blocks out of the cache; the payload is irrelevant, only the
        displacement matters.  The end state is exactly that of inserting
        the pages one at a time (the loop in ``tests/reference/churn.py``)
        but follows from ``used_bytes``, ``count`` and ``size``, so no
        foreign page that would be pushed out again is ever built.  When
        the newcomers overflow the cache (every wait the attacks issue),
        nothing resident survives: the pages read since the last wait are
        dropped and the ``capacity // size`` survivors are kept as a
        count at the LRU front, not as entries, so the wait costs the
        pages read since the last one, not the capacity.  When they fit,
        the LRU front is popped only until they do and they are appended
        as entries sharing one zero page under keys no device file has
        (path ``!bg``, numbered by the cache so no two waits collide).
        """
        if count < 0 or size <= 0:
            raise ConfigError(
                f"cannot displace {count} pages of {size} bytes: the count "
                "must be non-negative and the size positive")
        with self._lock:
            pages = self._pages
            end = self._next_foreign = self._next_foreign + count
            if count * size > self.capacity_bytes:
                kept = self.capacity_bytes // size
                self.stats.evictions += self._front + len(pages) + count - kept
                for key in pages.keys() & self._decoded_by_page.keys():
                    self._invalidate_decoded_for_page(key)
                pages.clear()
                self._front = kept
                self._front_size = size
                self._bytes = kept * size
                return
            self._shrink_to(self.capacity_bytes - count * size)
            page = self._zero_pages.get(size)
            if page is None:
                page = self._zero_pages[size] = memoryview(bytes(size))
            pages.update(zip(
                zip(repeat("!bg"), repeat(0), range(end - count, end)),
                repeat(page)))
            self._bytes += count * size

    def invalidate_file(self, path: str) -> None:
        """Drop every cached block of ``path``, across all generations.

        Decoded entries built on the file go with their pages, so a
        compaction that deletes and reallocates table files can never be
        answered from a stale decoded block.  (Generation keying already
        prevents cross-generation hits; invalidation reclaims the bytes
        immediately instead of waiting for LRU aging.)
        """
        with self._lock:
            stale = [key for key in self._pages if key[0] == path]
            for key in stale:
                self._bytes -= len(self._pages.pop(key))
                self._invalidate_decoded_for_page(key)
            # Decoded entries can outlive their pages (page evicted, entry
            # not yet touched); sweep those too.
            stale_decoded = [key for key in self._decoded if key[0] == path]
            for key in stale_decoded:
                self._drop_decoded(key)

    def clear(self) -> None:
        """Drop all cached pages and decoded entries."""
        with self._lock:
            self._pages.clear()
            self._front = 0
            self._bytes = 0
            self._decoded.clear()
            self._decoded_by_page.clear()

    @property
    def used_bytes(self) -> int:
        """Bytes currently cached."""
        return self._bytes

    @property
    def decoded_entries(self) -> int:
        """Number of decoded objects currently cached."""
        return len(self._decoded)

    def __len__(self) -> int:
        return self._front + len(self._pages)

    # ---------------------------------------------------------------- helpers

    def _insert(self, key: PageKey, block: memoryview) -> None:
        if key in self._pages:
            self._bytes -= len(self._pages.pop(key))
        self._pages[key] = block
        self._bytes += len(block)
        self._shrink_to(self.capacity_bytes)

    def _shrink_to(self, limit: int) -> None:
        if self._front and self._bytes > limit:
            # The front run goes first, in one step: as many of its pages
            # as popping them one by one would take.
            size = self._front_size
            evicted = min(self._front, -((limit - self._bytes) // size))
            self._front -= evicted
            self._bytes -= evicted * size
            self.stats.evictions += evicted
        while self._bytes > limit and self._pages:
            evicted_key, evicted = self._pages.popitem(last=False)
            self._bytes -= len(evicted)
            self.stats.evictions += 1
            self._invalidate_decoded_for_page(evicted_key)

    def _insert_decoded(self, key: DecodedKey, obj: object) -> None:
        if key in self._decoded:
            self._drop_decoded(key)
        self._decoded[key] = obj
        path, gen, offset, length = key
        block_size = self.device.model.block_size
        first = offset // block_size
        last = (offset + length - 1) // block_size
        for block_index in range(first, last + 1):
            self._decoded_by_page.setdefault(
                (path, gen, block_index), set()).add(key)
        while len(self._decoded) > self.decoded_capacity:
            oldest = next(iter(self._decoded))
            self._drop_decoded(oldest)

    def _drop_decoded(self, key: DecodedKey) -> None:
        self._decoded.pop(key, None)
        path, gen, offset, length = key
        block_size = self.device.model.block_size
        first = offset // block_size
        last = (offset + length - 1) // block_size
        for block_index in range(first, last + 1):
            dependents = self._decoded_by_page.get((path, gen, block_index))
            if dependents is not None:
                dependents.discard(key)
                if not dependents:
                    del self._decoded_by_page[(path, gen, block_index)]

    def _invalidate_decoded_for_page(self, page_key: PageKey) -> None:
        dependents = self._decoded_by_page.pop(page_key, None)
        if dependents:
            for decoded_key in list(dependents):
                self._drop_decoded(decoded_key)
