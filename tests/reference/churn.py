"""Background churn, one foreign page at a time.

This is ``PageCache.insert_foreign`` and the ``BackgroundLoad.run_for``
loop around it from before ``PageCache.displace`` computed a wait's end
state in one step — every page gets its own f-string path, its own
zero-filled buffer and its own trip through ``_insert``.  It proves the
**cache state**: after any script of reads and waits, ``displace`` must
leave the same pages in the same LRU order (foreign pages are numbered
differently, nothing else), the same ``used_bytes``, ``CacheStats``,
decoded entries and decoded-by-page index — and therefore the same
simulated clock for everything that reads afterwards.
"""

from __future__ import annotations

import itertools


def insert_foreign(cache, tag: str, block_index: int, size: int) -> None:
    """Insert one synthetic page on behalf of background load."""
    with cache._lock:
        cache._insert((f"!bg:{tag}", 0, block_index),
                      memoryview(b"\x00" * size))


def use_sequential_churn(cache) -> None:
    """Serve ``cache.displace`` from the per-page loop.

    Instance-level override; one tag per call (per wait), counted per
    cache so that loads sharing the cache never share a page key.
    """
    tags = itertools.count()

    def displace(count: int, size: int) -> None:
        tag = str(next(tags))
        for i in range(count):
            insert_foreign(cache, tag, i, size)

    cache.displace = displace
