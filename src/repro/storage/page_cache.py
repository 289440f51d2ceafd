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

Beside the raw pages, the cache memoizes *decoded* objects (parsed
SSTable blocks) keyed by the byte range they were decoded from, under
one invariant: **a decoded entry lives exactly as long as its pages.**
It is kept only if every page under it is still resident after the
read that decoded it, and it is dropped as soon as any of those pages
leaves (eviction, ``displace``, ``invalidate_file``, ``clear``).  So a
present entry is always a hit, and serving it charges the simulated
clock exactly what re-reading its pages would have charged — the memo
saves real (wall-clock) parse and checksum work without perturbing
simulated time by a single microsecond, and compaction can never serve
a stale block.  The page LRU is the cache's only state: the memo has
no order and no bound of its own.

Cache identity is **version-scoped**: every key includes the file's device
generation (bumped on create/rename/delete/append), so a path recycled by
a newer version can never be answered from the previous file's blocks —
the stale entries simply stop being addressable and age out of the LRU.

**Repeating a hit.**  A decoded hit moves its pages to the LRU tail, in
page order.  While they are still the LRU's last pages, the file's
generation is unchanged and the entry is still the same object,
repeating the hit would move nothing: :meth:`PageCache.repeat_hit`
checks exactly that, from the cache's state, and applies the hit's
charges and counters without the lookup (the point kernel serves a run
of keys in one block this way).
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
    #: Decoded-memo counters (wall-clock optimization only; the simulated
    #: charges of a decoded hit equal those of the page hits it stands
    #: in for).
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

    Decoded objects ride on the pages (module docstring): an entry is
    held exactly while all its pages are, so the memo needs no bound.

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

    def __init__(self, device: StorageDevice, capacity_bytes: int) -> None:
        if capacity_bytes < device.model.block_size:
            raise ConfigError(
                f"page cache capacity {capacity_bytes} smaller than one block "
                f"({device.model.block_size})"
            )
        self.device = device
        self.capacity_bytes = capacity_bytes
        self._pages: "OrderedDict[PageKey, memoryview]" = OrderedDict()
        self._bytes = 0
        # Decoded objects keyed by (path, gen, offset, length), each held
        # exactly while all its pages are, plus a reverse index from each
        # page to the decoded keys built on it, so a page leaving drops
        # its dependents in O(dependents).
        self._decoded: Dict[DecodedKey, object] = {}
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

        On a decoded hit (an entry is present, so all its pages are
        resident) this charges the clock and updates page stats/LRU
        order exactly as the equivalent :meth:`read` would, then skips
        the decode.  A miss faults the pages in through
        :meth:`read_block` (charge-identical to :meth:`read`) and
        decodes — from ``region``'s zero-copy view of the byte range
        when a mapping is supplied (data blocks usually straddle two
        device blocks, which block-joining would have to copy), else
        from the joined page bytes — and keeps the result only if every
        page is still resident.  The simulated-time trace is identical
        whether or not entries are kept, and whether or not a region is
        used.

        The hit path is the point-read kernel's I/O for the first key of
        a run (a cached data block per filter-passing probe), so it calls
        no method but the LRU's own: per page, in page order, one
        ``move_to_end``, one hit and one ``CACHE_HIT_COST_US`` added to
        the clock; then one decoded hit.

        A zero-length read decodes ``b""`` and, like :meth:`read`,
        touches no page, charges nothing and records no stats.
        """
        if length == 0:
            return decode(b"")
        gen = self._generation_of(path, 0)
        key = (path, gen, offset, length)
        block_size = self._block_size
        first = offset // block_size
        stop = (offset + length - 1) // block_size + 1
        with self._lock:
            obj = self._decoded.get(key)
            if obj is not None:
                move = self._pages.move_to_end
                clock = self._clock
                for block_index in range(first, stop):
                    move((path, gen, block_index))
                    clock.now_us += CACHE_HIT_COST_US
                stats = self.stats
                stats.hits += stop - first
                stats.decoded_hits += 1
                return obj
            self.stats.decoded_misses += 1
            if region is not None and not region.closed \
                    and region.generation == gen:
                # Fault the pages in (same charges/stats/LRU as read()),
                # then decode straight off the mapping — zero copies.
                for block_index in range(first, stop):
                    self.read_block(path, block_index)
                obj = decode(region.view(offset, length))
            else:
                obj = decode(self.read(path, offset, length))
            self._keep(key, first, stop, obj)
            return obj

    def repeat_hit(self, key: DecodedKey, obj: object,
                   lead_us: float) -> bool:
        """Apply a repeat of the :meth:`read_decoded` hit that returned
        ``obj`` for ``key`` if the repeat would move nothing, else change
        nothing and return False.

        The repeat moves nothing when, under the lock, the file's
        generation is still ``key``'s, ``key``'s entry is still ``obj``
        and its pages are the page LRU's last pages, in page order (a
        hit or a miss of ``key`` leaves them so).  Then this adds
        ``lead_us`` (the caller's charge that precedes the read, so the
        clock takes the values it would), one ``CACHE_HIT_COST_US`` per
        page, and the hit's ``hits`` and ``decoded_hits``.
        """
        path, gen, offset, length = key
        block_size = self._block_size
        first = offset // block_size
        last = (offset + length - 1) // block_size
        with self._lock:
            if self._generation_of(path, 0) != gen \
                    or self._decoded.get(key) is not obj:
                return False
            # The entry is present, so its pages are resident: the tail
            # holds at least as many pages as the block spans.
            tail = reversed(self._pages)
            for block_index in range(last, first - 1, -1):
                if next(tail) != (path, gen, block_index):
                    return False
            clock = self._clock
            clock.now_us += lead_us
            for _ in range(first, last + 1):
                clock.now_us += CACHE_HIT_COST_US
            stats = self.stats
            stats.hits += last + 1 - first
            stats.decoded_hits += 1
            return True

    def read_decoded_many(self, requests) -> list:
        """:meth:`read_decoded` over ``(path, offset, length, decode,
        region)`` tuples, in order.

        No read path calls it (range reads pull one block at a time
        through the heap merge); it stays until the e2e tracer stops
        pinning it by name (ROADMAP item 1(c)).
        """
        return [self.read_decoded(path, offset, length, decode, region)
                for path, offset, length, decode, region in requests]

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
                # Every page leaves, so every decoded entry goes with it.
                pages.clear()
                self._decoded.clear()
                self._decoded_by_page.clear()
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

    def _keep(self, key: DecodedKey, first: int, stop: int,
              obj: object) -> None:
        """Memoize ``obj`` under ``key`` if all its pages (``first`` up to
        ``stop``) survived the read that decoded it."""
        path, gen = key[0], key[1]
        page_keys = [(path, gen, block_index)
                     for block_index in range(first, stop)]
        if all(page_key in self._pages for page_key in page_keys):
            self._decoded[key] = obj
            for page_key in page_keys:
                self._decoded_by_page.setdefault(page_key, set()).add(key)

    def _drop_decoded(self, key: DecodedKey) -> None:
        self._decoded.pop(key, None)
        path, gen, offset, length = key
        block_size = self._block_size
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
