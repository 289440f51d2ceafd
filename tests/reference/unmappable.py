"""A storage device whose files cannot be memory-mapped.

Sorted views are built from mapped regions, so a store on this device
has none and serves every range read through the classic per-query heap
merge — the fallback the code selects by itself, which makes it the
range-side oracle: the view's walk must reproduce its results, stats and
simulated **clock** bit for bit.
"""

from __future__ import annotations

from repro.common.errors import StorageError
from repro.storage.device import StorageDevice


class UnmappableDevice(StorageDevice):
    """``StorageDevice`` on a platform without ``mmap``."""

    def map_file(self, path: str):
        raise StorageError(f"cannot map {path!r}: mapping unsupported")
