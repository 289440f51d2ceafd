"""Simulated block storage device with an NVMe-like latency model.

Files are byte strings held in memory; reads charge the simulated clock
according to a seeded latency model.  The model is deliberately simple —
a lognormal per-read service time plus a per-block transfer cost — because
the attack only needs the qualitative property that a read from "secondary
storage" costs tens of microseconds with noise, clearly separable from
DRAM-scale work yet overlapping enough that single measurements are noisy
(which is why the attack averages four queries per key, section 9).

Two MVCC-era extensions (DESIGN.md section 12):

* **File generations** — every path carries a monotonically increasing
  generation number, bumped on create/append/rename/delete.  Caches key
  their entries on ``(path, generation, ...)`` so a recycled path can
  never serve a stale block.
* **Mapped regions** — :meth:`map_file` returns a :class:`MappedRegion`,
  the simulated analogue of ``mmap``: readers take zero-copy
  ``memoryview`` slices of the file image, pin the region while a view
  is live, and the unmap is deferred until the last pin drops (the POSIX
  read-after-unlink guarantee: deleting the path does not invalidate an
  existing mapping).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Mapping, Optional

from repro.common.errors import (
    ConfigError,
    FileNotFoundInStoreError,
    ReadOutOfBoundsError,
    StorageError,
)
from repro.common.rng import SeededRng, make_rng

#: Default block size, matching common SSD/page-cache granularity.
DEFAULT_BLOCK_SIZE = 4096


@dataclass(frozen=True)
class DeviceModel:
    """Latency parameters of the simulated device (all microseconds).

    The defaults are tuned so a single-block read lands mostly in the
    18-28 us range, reproducing the paper's observation that false-positive
    queries (one SSTable block read) respond in 25-35 us end-to-end while
    memory-only queries take 5-10 us.
    """

    block_size: int = DEFAULT_BLOCK_SIZE
    #: lognormal location of the per-read service time.
    read_latency_mu: float = 3.0  # exp(3.0) ~ 20 us median
    #: lognormal scale (noise) of the per-read service time.
    read_latency_sigma: float = 0.12
    #: additional cost per block transferred beyond the first.
    per_block_transfer_us: float = 1.5
    #: flat cost of a write (writes are off the timing-attack path).
    write_latency_us: float = 30.0

    def __post_init__(self) -> None:
        if self.block_size <= 0:
            raise ConfigError(f"block size must be positive, got {self.block_size}")
        if self.read_latency_sigma < 0:
            raise ConfigError("read latency sigma must be non-negative")


@dataclass
class DeviceStats:
    """Operation counters, used by tests and the idealized-attack oracle."""

    reads: int = 0
    blocks_read: int = 0
    writes: int = 0
    bytes_written: int = 0


class MappedRegion:
    """A simulated ``mmap`` of one file: zero-copy views plus pin lifetime.

    The region holds a reference to the file image as mapped (so later
    rewrites of the path never show through — real mmaps of replaced
    files keep the old pages) and hands out ``memoryview`` slices.
    Readers :meth:`pin` the region for the duration of any borrowed
    view; :meth:`mark_doomed` unmaps it, deferring to the last unpin
    while pins are outstanding.
    """

    __slots__ = ("path", "generation", "_data", "_pins", "_doomed",
                 "_closed", "_lock")

    def __init__(self, path: str, generation: int, data: bytes) -> None:
        self.path = path
        self.generation = generation
        self._data = data
        self._pins = 0
        self._doomed = False
        self._closed = False
        self._lock = threading.Lock()

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def pins(self) -> int:
        return self._pins

    def view(self, offset: int, length: int) -> memoryview:
        """Borrow a zero-copy slice of the mapped file."""
        if self._closed:
            raise StorageError(f"mapped region for {self.path!r} is unmapped")
        if offset < 0 or length < 0 or offset + length > len(self._data):
            raise ReadOutOfBoundsError(
                f"view [{offset}, {offset + length}) out of bounds for "
                f"mapping of {self.path!r} ({len(self._data)} bytes)")
        return memoryview(self._data)[offset:offset + length]

    def __len__(self) -> int:
        return len(self._data)

    def pin(self) -> None:
        """Declare a live borrow; the region will not unmap under it."""
        with self._lock:
            if self._closed:
                raise StorageError(
                    f"pin of unmapped region for {self.path!r}")
            self._pins += 1

    def unpin(self) -> None:
        """Release one borrow; unmaps now if doomed and this was the last."""
        with self._lock:
            if self._pins <= 0:
                raise StorageError(
                    f"unpin of unpinned region for {self.path!r}")
            self._pins -= 1
            if self._doomed and self._pins == 0:
                self._unmap()

    def mark_doomed(self) -> None:
        """Unmap now, or at the moment the last pin drops."""
        with self._lock:
            self._doomed = True
            if self._pins == 0:
                self._unmap()

    def _unmap(self) -> None:
        """Drop the file image (lock held by caller)."""
        self._closed = True
        self._data = b""


class StorageDevice:
    """In-memory file store that charges simulated I/O latency.

    The device is shared by the LSM-tree (SSTables, WAL) and read through
    the :class:`~repro.storage.page_cache.PageCache`; direct reads model
    cache misses.

    Every charged operation has one implementation, the underscore-named
    I/O core (``_create``/``_append``/``_rename``/``_delete``/
    ``_read_view``/``_read_block_view``), which takes *who is charged* —
    the ``account``: anything with a ``clock``, a latency ``_rng`` and a
    ``stats`` — as its first argument.  The public methods pass the
    device itself; a :class:`DeviceView` passes the view.  The fault
    layer (:class:`~repro.storage.faults.FaultyStorageDevice`) gates the
    core, so it covers both.

    Threading: a reentrant lock serializes every operation, so concurrent
    callers (the background compactor, snapshot readers, the serving
    thread) see atomic file mutations and consistent stats/latency-RNG
    state.  Determinism still requires a deterministic *operation order*
    per account — each view has its own clock, RNG and stats, so a
    background merge or a snapshot read cannot reorder the serving
    store's draws; the lock makes the shared namespace safe.
    """

    def __init__(self, clock, model: Optional[DeviceModel] = None,
                 rng: Optional[SeededRng] = None) -> None:
        self.clock = clock
        self.model = model or DeviceModel()
        self._rng = rng or make_rng(None, "device")
        self._files: Dict[str, bytes] = {}
        #: path -> generation; bumped on every mutation of the path so
        #: caches can key on version-scoped file identity.
        self._generations: Dict[str, int] = {}
        #: path -> live MappedRegion (at most one per path at a time).
        self._mappings: Dict[str, MappedRegion] = {}
        self.stats = DeviceStats()
        self._lock = threading.RLock()

    # ------------------------------------------------------------------ files

    def _bump_generation(self, path: str) -> None:
        self._generations[path] = self._generations.get(path, 0) + 1

    def file_generation(self, path: str) -> int:
        """Current generation of ``path`` (0 if never written).

        Lock-free: a single dict read is atomic under the GIL, and
        generations only move forward — the hottest cache paths call
        this once per block read, so the lock would be pure overhead.
        """
        return self._generations.get(path, 0)

    def generation_map(self) -> Mapping[str, int]:
        """The live ``path -> generation`` map behind :meth:`file_generation`
        (read-only use; a never-written path is absent, i.e. generation 0).

        The page cache's hit path reads it with the dict's own ``get``
        rather than a method call per read.
        """
        return self._generations

    def create_file(self, path: str, data: bytes) -> None:
        """Write a complete immutable file (SSTables are write-once)."""
        self._create(self, path, data)

    def append(self, path: str, data: bytes) -> None:
        """Append to a file, creating it if missing (WAL traffic)."""
        self._append(self, path, data)

    def delete_file(self, path: str) -> None:
        """Remove a file (compaction garbage collection).

        A live mapping of the path survives the unlink (POSIX
        semantics): readers holding the region keep reading the old
        image until its owner unmaps it.
        """
        self._delete(path)

    def rename(self, src: str, dst: str) -> None:
        """Atomically move ``src`` over ``dst`` (POSIX rename semantics).

        The primitive behind write-new-then-swap manifest replacement: the
        destination either keeps its old content or has the complete new
        content, never a mix — a crash can prevent the rename but cannot
        tear it.
        """
        self._rename(self, src, dst)

    def exists(self, path: str) -> bool:
        """Whether ``path`` exists on the device."""
        return path in self._files

    def file_size(self, path: str) -> int:
        """Size of ``path`` in bytes."""
        return len(self._file(path))

    def list_files(self):
        """Sorted list of file paths (manifest recovery, tests)."""
        return sorted(self._files)

    # --------------------------------------------------------------- mappings

    def map_file(self, path: str) -> MappedRegion:
        """Map ``path`` (simulated ``mmap``); one shared region per path.

        Mapping charges nothing: establishing page-table entries is not
        an I/O in the latency model (faulting pages in is what the read
        methods charge for).
        """
        with self._lock:
            region = self._mappings.get(path)
            if region is not None and not region.closed:
                return region
            region = MappedRegion(path, self._generations.get(path, 0),
                                  self._file(path))
            self._mappings[path] = region
            return region

    # ------------------------------------------------------------------ reads

    def read(self, path: str, offset: int, length: int) -> bytes:
        """Read ``length`` bytes at ``offset``, charging I/O latency.

        The charge covers every block the byte range touches: one lognormal
        service time for the read plus a linear transfer cost per extra
        block.
        """
        return bytes(self.read_view(path, offset, length))

    def read_view(self, path: str, offset: int, length: int) -> memoryview:
        """Zero-copy :meth:`read`: same charge, stats, and RNG draw.

        The returned view aliases the immutable file image; callers must
        not mutate it (and cannot: the backing object is ``bytes``).
        """
        return self._read_view(self, path, offset, length)

    def read_block(self, path: str, block_index: int) -> bytes:
        """Read one whole block (page-cache fill granularity)."""
        return bytes(self.read_block_view(path, block_index))

    def read_block_view(self, path: str, block_index: int) -> memoryview:
        """Zero-copy :meth:`read_block`: same charge, stats, RNG draw."""
        return self._read_block_view(self, path, block_index)

    def num_blocks(self, path: str) -> int:
        """Number of blocks in ``path`` (last one may be partial)."""
        size = len(self._readable(path))
        return (size + self.model.block_size - 1) // self.model.block_size

    # ------------------------------------------------------------------ views

    def reader_view(self, clock, rng: SeededRng) -> "DeviceView":
        """A read-only view charging ``clock`` and drawing from ``rng``.

        Snapshots read through one of these so their I/O timing comes
        from their own deterministic streams instead of perturbing the
        live store's.
        """
        return DeviceView(self, clock, rng, mutable=False)

    def silent_view(self) -> "DeviceView":
        """A mutable view whose charges and draws hit throwaway streams.

        Background compaction works through a silent view: it shares the
        real file namespace (and generation counters) but none of its
        I/O perturbs the serving store's clock, stats, or latency RNG —
        background work is free in simulated time by design (DESIGN.md
        section 12).
        """
        from repro.storage.clock import SimClock
        return DeviceView(self, SimClock(), make_rng(0, "silent-device"),
                          mutable=True)

    # --------------------------------------------------------------- I/O core
    # One implementation per charged operation; ``account`` is whoever
    # pays for it (this device, or a view of it).

    def _create(self, account, path: str, data: bytes) -> None:
        with self._lock:
            self._files[path] = bytes(data)
            self._bump_generation(path)
            self._mappings.pop(path, None)
            self._charge_write(account, len(data))

    def _append(self, account, path: str, data: bytes) -> None:
        with self._lock:
            self._files[path] = self._files.get(path, b"") + bytes(data)
            self._bump_generation(path)
            self._charge_write(account, len(data))

    def _rename(self, account, src: str, dst: str) -> None:
        with self._lock:
            self._files[dst] = self._file(src)
            del self._files[src]
            self._bump_generation(src)
            self._bump_generation(dst)
            self._mappings.pop(src, None)
            self._mappings.pop(dst, None)
            self._charge_write(account, 0)

    def _delete(self, path: str) -> None:
        """Uncharged and uncounted, so it takes no account."""
        with self._lock:
            if self._files.pop(path, None) is not None:
                self._bump_generation(path)
            self._mappings.pop(path, None)

    def _read_view(self, account, path: str, offset: int, length: int
                   ) -> memoryview:
        with self._lock:
            data = self._readable(path)
            if offset < 0 or length < 0 or offset + length > len(data):
                raise ReadOutOfBoundsError(
                    f"read [{offset}, {offset + length}) out of bounds for "
                    f"{path!r} of size {len(data)}"
                )
            self._charge_read(account, self._blocks_spanned(offset, length))
            return memoryview(data)[offset : offset + length]

    def _read_block_view(self, account, path: str, block_index: int
                         ) -> memoryview:
        with self._lock:
            data = self._readable(path)
            start = block_index * self.model.block_size
            if start >= len(data) or block_index < 0:
                raise ReadOutOfBoundsError(
                    f"block {block_index} out of bounds for {path!r} "
                    f"of size {len(data)}"
                )
            self._charge_read(account, 1)
            return memoryview(data)[start : start + self.model.block_size]

    def _charge_write(self, account, payload_len: int) -> None:
        account.stats.writes += 1
        account.stats.bytes_written += payload_len
        account.clock.charge(self.model.write_latency_us)

    def _charge_read(self, account, blocks: int) -> None:
        account.stats.reads += 1
        account.stats.blocks_read += blocks
        service = account._rng.lognormvariate(
            self.model.read_latency_mu, self.model.read_latency_sigma
        )
        account.clock.charge(
            service + self.model.per_block_transfer_us * (blocks - 1))

    # ---------------------------------------------------------------- helpers

    def _file(self, path: str) -> bytes:
        try:
            return self._files[path]
        except KeyError:
            raise FileNotFoundInStoreError(f"no such file: {path!r}") from None

    def _readable(self, path: str) -> bytes:
        """File image for reading: falls back to a live mapping.

        Models read-after-unlink: a deleted path whose mapping is still
        held keeps serving the mapped image (refcounted inode).
        """
        data = self._files.get(path)
        if data is not None:
            return data
        region = self._mappings.get(path)
        if region is not None and not region.closed:
            return region._data
        raise FileNotFoundInStoreError(f"no such file: {path!r}")

    def _blocks_spanned(self, offset: int, length: int) -> int:
        if length == 0:
            return 1
        first = offset // self.model.block_size
        last = (offset + length - 1) // self.model.block_size
        return last - first + 1


class DeviceView:
    """The parent device, charged to private streams.

    There is one store: every call goes to the parent — namespace queries
    to its public methods, charged I/O to its I/O core with this view as
    the account, so the view's own clock is charged, its own RNG drawn
    and its own stats counted, and whatever gates the parent's core
    (the fault layer) gates the view.  Two flavors:

    * ``reader_view`` (``mutable=False``): snapshot reads; mutation
      methods raise.
    * ``silent_view`` (``mutable=True``): background compaction; its
      writes mutate the shared namespace but charge a throwaway clock.
    """

    def __init__(self, parent: StorageDevice, clock, rng: SeededRng,
                 mutable: bool) -> None:
        self._parent = parent
        self.clock = clock
        self.model = parent.model
        self._rng = rng
        self._mutable = mutable
        self.stats = DeviceStats()

    def file_generation(self, path: str) -> int:
        return self._parent.file_generation(path)

    def generation_map(self) -> Mapping[str, int]:
        return self._parent.generation_map()

    def exists(self, path: str) -> bool:
        return self._parent.exists(path)

    def file_size(self, path: str) -> int:
        return self._parent.file_size(path)

    def list_files(self):
        return self._parent.list_files()

    def num_blocks(self, path: str) -> int:
        return self._parent.num_blocks(path)

    def map_file(self, path: str) -> MappedRegion:
        return self._parent.map_file(path)

    def read(self, path: str, offset: int, length: int) -> bytes:
        return bytes(self.read_view(path, offset, length))

    def read_view(self, path: str, offset: int, length: int) -> memoryview:
        return self._parent._read_view(self, path, offset, length)

    def read_block(self, path: str, block_index: int) -> bytes:
        return bytes(self.read_block_view(path, block_index))

    def read_block_view(self, path: str, block_index: int) -> memoryview:
        return self._parent._read_block_view(self, path, block_index)

    def _require_mutable(self) -> None:
        if not self._mutable:
            raise StorageError("read-only device view cannot mutate files")

    def create_file(self, path: str, data: bytes) -> None:
        self._require_mutable()
        self._parent._create(self, path, data)

    def append(self, path: str, data: bytes) -> None:
        self._require_mutable()
        self._parent._append(self, path, data)

    def rename(self, src: str, dst: str) -> None:
        self._require_mutable()
        self._parent._rename(self, src, dst)

    def delete_file(self, path: str) -> None:
        self._require_mutable()
        self._parent._delete(path)

    def reader_view(self, clock, rng: SeededRng) -> "DeviceView":
        return self._parent.reader_view(clock, rng)

    def silent_view(self) -> "DeviceView":
        return self._parent.silent_view()
