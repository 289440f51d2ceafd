"""A storage device whose files cannot be memory-mapped.

A store on this device has no mapped regions, so every block a read
decodes comes from a device read instead of a zero-copy slice of the
table's mapping.  That makes it the range-side oracle: range reads on
it must return the same results, stats and simulated **clock**, bit for
bit, as on a mappable device — region-less decoded reads charge exactly
like mapped ones.
"""

from __future__ import annotations

from repro.common.errors import StorageError
from repro.storage.device import StorageDevice


class UnmappableDevice(StorageDevice):
    """``StorageDevice`` on a platform without ``mmap``."""

    def map_file(self, path: str):
        raise StorageError(f"cannot map {path!r}: mapping unsupported")
