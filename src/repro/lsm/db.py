"""The LSM-tree key-value store facade.

Wires memtable, WAL, SSTables, filters, page cache and compaction into the
dictionary abstraction of paper section 2.1 (``put``/``get``/
``range_query``) on top of the simulated clock, so every query has a
measurable simulated response time.

The ``get`` path is the attack surface: it searches top-down (memtable,
L0 newest-first, then one table per deeper level) and consults each
table's in-memory filter before reading any data block, so a key rejected
by every filter is answered without I/O — the timing signal prefix
siphoning exploits.  That search, and every other read, lives in
:mod:`repro.lsm.read_path`: the tree owns state (memtable, versions,
clock, RNG streams, cache) and serves each read through a short-lived
:class:`~repro.lsm.read_path.ReadView` of it; a
:class:`~repro.lsm.snapshot.SnapshotView` is a long-lived one.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, List, Optional, Tuple

from repro.common.errors import ConfigError, DBClosedError
from repro.common.rng import make_rng
from repro.lsm.compaction import BackgroundCompactor, Compactor
from repro.lsm.iterator import DBIterator
from repro.lsm.manifest import Manifest, ManifestEntry
from repro.lsm.memtable import MemTable
from repro.lsm.options import (
    COST_JITTER,
    MAX_LEVELS,
    MEMTABLE_INSERT_COST_US,
    PUT_BASE_COST_US,
    LSMOptions,
)
from repro.lsm.read_path import ProbePlan, ReadView
from repro.lsm.recovery import RecoveryReport, recover
from repro.lsm.sstable import SSTable
from repro.lsm.table_build import (
    build_table_artifact,
    install_artifact,
    split_records,
)
from repro.lsm.version import Version, VersionEdit, VersionSet
from repro.lsm.wal import WriteAheadLog
from repro.storage.clock import SimClock
from repro.storage.device import StorageDevice
from repro.storage.page_cache import PageCache


@dataclass
class DBStats:
    """Engine-level counters (the "debugging counters" of section 10.2.2)."""

    gets: int = 0
    puts: int = 0
    deletes: int = 0
    range_queries: int = 0
    memtable_hits: int = 0
    filter_checks: int = 0
    filter_negatives: int = 0
    table_reads: int = 0
    flushes: int = 0
    #: Always 0: the counters of a range engine that is gone, kept
    #: until the e2e workloads stop reading them (ROADMAP item 2(c)).
    sorted_view_seeks: int = 0
    view_rebuild_segments: int = 0

    @property
    def filter_positives(self) -> int:
        """Filter checks that passed (true or false positives)."""
        return self.filter_checks - self.filter_negatives


class LSMTree:
    """A single-node LSM-tree key-value store over simulated storage."""

    def __init__(self, options: Optional[LSMOptions] = None,
                 clock: Optional[SimClock] = None,
                 device: Optional[StorageDevice] = None,
                 cache: Optional[PageCache] = None) -> None:
        self.options = options or LSMOptions()
        self.clock = clock or SimClock()
        rng = make_rng(self.options.seed, "lsm")
        self.device = device or StorageDevice(self.clock, rng=rng.spawn("device"))
        if self.device.clock is not self.clock:
            raise ConfigError("device must share the LSMTree's clock")
        # ``cache or ...`` would silently discard an *empty* caller cache
        # (PageCache defines __len__, so a fresh one is falsy) and leave
        # the caller churning an orphan while reads bypass it entirely.
        self.cache = cache if cache is not None else PageCache(
            self.device, self.options.page_cache_bytes)
        self._memtable = MemTable()
        self._wal = WriteAheadLog(self.device, "wal/current.wal")
        self.versions = VersionSet(Version(MAX_LEVELS))
        self._manifest = Manifest(self.device)
        self._next_file = 0
        self._file_lock = threading.Lock()
        self._commit_lock = threading.Lock()
        self._compaction_lock = threading.Lock()
        self._compactor = Compactor(self.device, self.cache, self.options,
                                    self.versions, self._allocate_path)
        self.stats = DBStats()
        self._cost_rng = rng.spawn("costs")
        self._closed = False
        #: Reader pins still outstanding when :meth:`close` reclaimed them.
        self.leaked_pins = 0
        self._snapshot_counter = 0
        self._background: Optional[BackgroundCompactor] = None
        self._bg_compactor: Optional[Compactor] = None
        if self.options.background_compaction:
            # Background merges read and write through a *silent* view of
            # the device (shared files, throwaway clock/RNG/stats) and a
            # private cache, so their I/O never perturbs the serving
            # store's simulated time, RNG streams or cache state.  Like
            # any cache it keeps a decoded block only while the block's
            # pages are resident, so its memory is bounded by its pages.
            # The serving cache is still invalidated for replaced tables,
            # and new tables are rebound to the real device before install.
            self._silent_device = self.device.silent_view()
            self._silent_cache = PageCache(self._silent_device,
                                           self.options.page_cache_bytes)
            self._silent_manifest = Manifest(self._silent_device)
            self._bg_compactor = Compactor(
                self._silent_device, self._silent_cache, self.options,
                self.versions, self._allocate_path,
                invalidate_cache=self.cache, rebind_device=self.device)
            self._background = BackgroundCompactor(self._background_work)
        #: Filled by :meth:`reopen`; None for a freshly created tree.
        self.recovery_report: Optional[RecoveryReport] = None

    def _background_work(self) -> None:
        """One background cycle: drain triggers, then durably commit."""
        with self._compaction_lock:
            ran = self._bg_compactor.maybe_compact()
        if ran:
            self._commit_version(manifest=self._silent_manifest,
                                 device=self._silent_device)

    @property
    def compactions_run(self) -> int:
        """Compactions installed so far, by whichever engine this tree runs."""
        return (self._bg_compactor or self._compactor).compactions_run

    @property
    def background_cycles(self) -> int:
        """Background-compaction thread cycles (0 for a sync tree)."""
        return self._background.cycles if self._background is not None else 0

    # --------------------------------------------------------------- recovery

    @classmethod
    def reopen(cls, device: StorageDevice,
               options: Optional[LSMOptions] = None) -> "LSMTree":
        """Recover a tree from an existing device: manifest + WAL replay.

        The procedure (:func:`repro.lsm.recovery.recover`) survives a
        hostile disk, not just a clean restart; what it decided is
        recorded on ``db.recovery_report`` (:class:`RecoveryReport`).
        """
        db = cls(options=options, clock=device.clock, device=device)
        db.recovery_report = recover(db)
        return db

    # ----------------------------------------------------------------- writes

    def put(self, key: bytes, value: bytes) -> None:
        """Insert or update ``key``."""
        if value is None:
            raise ConfigError("use delete() for tombstones, not put(None)")
        self._write([(key, value)])

    def delete(self, key: bytes) -> None:
        """Delete ``key`` (writes a tombstone)."""
        self._write([(key, None)], deletes=True)

    def put_many(self, items: Iterable[Tuple[bytes, bytes]]) -> None:
        """Batch put with WAL group commit.

        Equivalent to a ``put`` loop for the stored state (same memtable
        inserts, same RNG draws, same per-record in-memory charges) but
        the whole batch is logged with **one** crc-framed device append
        (:meth:`WriteAheadLog.log_batch`) — the modeled group-commit
        latency win.
        """
        self._write([(key, value) for key, value in items])

    def delete_many(self, keys: Iterable[bytes]) -> None:
        """Batch delete (tombstones): the delete analogue of
        :meth:`put_many`."""
        self._write([(key, None) for key in keys], deletes=True)

    def _write(self, records: List[Tuple[bytes, Optional[bytes]]],
               deletes: bool = False) -> None:
        """The one write body: count, charge per record, log, insert.

        ``records`` are ``(key, value)`` with ``None`` for a tombstone,
        logged with one WAL append however many there are (a batch of one
        is byte-identical to a single-record log call).  The flush
        threshold is checked once, after the batch: flushing mid-batch
        would reset a WAL that already holds the batch's later records,
        losing acknowledged data on a crash.  A torn batch append keeps a
        durable *prefix* of the batch (see ``log_batch``); nothing is
        acknowledged until the append returns.
        """
        self._check_open()
        if not records:
            return
        if deletes:
            self.stats.deletes += len(records)
        else:
            self.stats.puts += len(records)
        cost = PUT_BASE_COST_US + MEMTABLE_INSERT_COST_US
        for _ in records:
            self.charge_cost(cost)
        self._wal.log_batch(records)
        self._memtable.put_many(records)
        self._maybe_flush()

    def _maybe_flush(self) -> None:
        if self._memtable.approximate_bytes >= self.options.memtable_size_bytes:
            self.flush()

    def flush(self) -> Optional[SSTable]:
        """Flush the memtable to a new L0 SSTable (no-op when empty).

        Crash-ordering contract: the WAL is reset only *after* the
        manifest durably lists the flushed table (and obsolete files are
        deleted only after the manifest stops referencing them).  At
        every intermediate crash point the acknowledged writes live in
        the WAL, in a manifest-listed table, or in both — replaying a
        WAL whose records were already flushed is idempotent, losing
        them is not.
        """
        self._check_open()
        if not len(self._memtable):
            return None
        artifact = build_table_artifact(
            [(key, entry.value) for key, entry in self._memtable.items()],
            self.options.block_size_bytes, self.options.filter_builder)
        table = install_artifact(self.device, self._allocate_path(), artifact)
        self.versions.install(VersionEdit(0, [table], []))
        self._memtable = MemTable()
        self.stats.flushes += 1
        if self._background is None:
            with self._compaction_lock:
                self._compactor.maybe_compact()
        self._commit_version()
        self._wal.reset()
        if self._background is not None:
            # Install + durable manifest done; merging happens
            # off-thread, overlapping the caller's next operations.
            self._background.kick()
        return table

    def compact_all(self) -> None:
        """Force full compaction (the paper compacts after populating).

        Leveled: push L0 down, then cascade every populated level into
        the one below until a single level holds all data (RocksDB
        ``CompactRange``-to-bottommost analogue) — the final merges land
        on the bottom, so every tombstone is garbage collected rather
        than depending on which size triggers happen to fire.
        """
        self._check_open()
        self.flush()
        if self._background is not None:
            self._background.quiesce()
        # In background mode the cascade runs inline through the silent
        # compactor, so full compaction is uncharged like every other
        # merge in that mode; the sync engine charges the real clock.
        compactor = self._bg_compactor or self._compactor
        with self._compaction_lock:
            if self.options.compaction_style == "tiered":
                compactor.merge_all_runs()
            else:
                # Push L0 down even below the trigger.
                while self.versions.current.levels[0]:
                    compactor._compact_l0(self.versions.current)
                while True:
                    current = self.versions.current
                    populated = [lvl
                                 for lvl in range(1, MAX_LEVELS)
                                 if current.levels[lvl]]
                    if len(populated) <= 1:
                        break
                    compactor.compact_level_fully(populated[0])
                compactor.maybe_compact()
        self._commit_version()

    def bulk_load(self, items: Iterable[Tuple[bytes, bytes]]) -> None:
        """Ingest pre-sorted unique (key, value) pairs as bottom-level tables.

        The fast path for building large experiment datasets: writes
        ready-compacted tables directly into the deepest level that fits
        them, bypassing the memtable and WAL (RocksDB SST-ingestion
        analogue).  The tree must be empty.

        ``items`` is consumed as a stream: it is cut at
        ``sstable_target_bytes`` boundaries as it is pulled
        (:func:`~repro.lsm.table_build.split_records`), and each table is
        built and written through the one table writer
        (:mod:`repro.lsm.table_build`) before the next is pulled, so one
        table's records are in memory at a time.  The tables are
        installed together once the stream ends.  Input that turns out
        unsorted or duplicated raises :class:`ConfigError` (the writer
        checks order inside a table, this loop at each table boundary);
        the files already written are then deleted and nothing is
        installed, so the tree stays empty.
        """
        self._check_open()
        if len(self._memtable) or self.versions.current.total_tables():
            raise ConfigError("bulk_load requires an empty tree")
        options = self.options
        tables: List[SSTable] = []
        try:
            for chunk in split_records(items, options.block_size_bytes,
                                       options.sstable_target_bytes):
                if tables and chunk[0][0] <= tables[-1].max_key:
                    raise ConfigError(
                        "bulk_load input must be sorted and unique")
                artifact = build_table_artifact(
                    chunk, options.block_size_bytes, options.filter_builder)
                # Drop this table's records before the next are pulled.
                del chunk
                tables.append(install_artifact(
                    self.device, self._allocate_path(), artifact))
        except BaseException:
            for table in tables:
                self.device.delete_file(table.path)
                table.reader.unmap()
            raise
        if not tables:
            return
        level = self._deepest_fitting_level(
            sum(table.size_bytes for table in tables))
        self.versions.install(VersionEdit(level, tables, []))
        self._commit_version()

    def _deepest_fitting_level(self, total_bytes: int) -> int:
        for level in range(MAX_LEVELS - 1, 0, -1):
            if self._compactor.level_target_bytes(level) >= total_bytes:
                return level
        return MAX_LEVELS - 1

    # ------------------------------------------------------------------ reads
    # Every read opens a short-lived view of the live tree, delegates to
    # it and closes it: read_path.ReadView holds the contract of each.
    # They stay spelled out here, where the e2e tracer spans them.

    def _read_view(self) -> ReadView:
        """Open a view of the live tree; the caller closes it.

        The memtable is taken before the pin: a flush landing in between
        installs a version holding this memtable's records, then swaps in
        a new memtable without emptying this one, so the pair misses
        nothing.  The only place a read pins a version (snapshots open
        theirs here too).
        """
        self._check_open()
        memtable = self._memtable
        return ReadView(self, memtable, self.versions.pin(), self.clock,
                        self.cache, self.stats, self._cost_rng)

    def _read(self, read: Callable, *args):
        """``read(view, *args)`` on a view opened for it, closed after."""
        view = self._read_view()
        try:
            return read(view, *args)
        finally:
            view.close()

    def get(self, key: bytes) -> Optional[bytes]:
        """Point query; returns the value or None."""
        return self._read(ReadView.get, key)

    def get_timed(self, key: bytes) -> Tuple[Optional[bytes], float]:
        """``get`` plus its simulated response time in microseconds."""
        return self._read(ReadView.get_timed, key)

    def probe_plan(self, keys: Iterable[bytes]) -> Optional[ProbePlan]:
        """Pure batched-probe prepass (:func:`read_path.probe_plan`).

        The returned plan holds the view it was computed over, pinned;
        callers :meth:`~ProbePlan.release` it.  No read takes a plan: the
        batch reads make their own.
        """
        view = self._read_view()
        try:
            plan = view.probe_plan(keys)
        except BaseException:
            view.close()
            raise
        if plan is None:
            view.close()
        else:
            plan.view = view
        return plan

    def getter(self) -> Callable[[bytes], Optional[bytes]]:
        """Point-read closure for per-key callers: each call is a
        :meth:`get`, and raises once the tree is closed."""
        self._check_open()
        return partial(self._read, ReadView.get)

    def get_many(self, keys: Iterable[bytes],
                 request_us: Optional[float] = None, on_found=None,
                 until=None, admit=None) -> List[object]:
        """Batch point query, with an optional request envelope; the batch
        reads the one (memtable, version) pair taken at its start."""
        return self._read(ReadView.get_many, keys, request_us, on_found,
                          until, admit)

    def get_many_timed(self, keys: Iterable[bytes],
                       request_us: Optional[float] = None, on_found=None,
                       until=None, admit=None) -> List[Tuple[object, float]]:
        """Batch ``get_timed``: per-key (value, simulated elapsed us)."""
        return self._read(ReadView.get_many_timed, keys, request_us,
                          on_found, until, admit)

    def range_query(self, low: bytes, high: bytes,
                    limit: Optional[int] = None) -> List[Tuple[bytes, bytes]]:
        """All pairs with ``low <= key <= high`` (inclusive), in key order."""
        return self._read(ReadView.range_query, low, high, limit)

    def scan(self, prefix: bytes, limit: Optional[int] = None
             ) -> List[Tuple[bytes, bytes]]:
        """Prefix scan: every pair whose key extends ``prefix``, in order."""
        return self._read(ReadView.scan, prefix, limit)

    def iterator(self, low: bytes = b"", high: Optional[bytes] = None
                 ) -> DBIterator:
        """Forward cursor over ``[low, high]``; it holds a view of its own
        until it exhausts or closes."""
        view = self._read_view()
        try:
            return view._cursor(low, high, view.close)
        except BaseException:
            view.close()
            raise

    # ------------------------------------------------------- attack-side APIs

    def filters_pass(self, key: bytes) -> bool:
        """Ground-truth filter decision for ``key`` across the search path:
        no simulated time, no I/O."""
        return self._read(ReadView.filters_pass, key)

    def filters_pass_many(self, keys: Iterable[bytes]) -> List[bool]:
        """Batch :meth:`filters_pass`: one batched probe per filter."""
        return self._read(ReadView.filters_pass_many, keys)

    def range_filters_pass(self, low: bytes, high: bytes) -> bool:
        """Ground-truth range-filter decision for ``[low, high]``."""
        return self._read(ReadView.range_filters_pass, low, high)

    @property
    def version(self) -> Version:
        """The current immutable version (read-only use, no pin)."""
        return self.versions.current

    # -------------------------------------------------------------- lifecycle

    def snapshot(self):
        """Consistent point-in-time read view of the whole store.

        Pins the current version and freezes the memtable; the returned
        :class:`~repro.lsm.snapshot.SnapshotView` exposes the read
        surface of the tree over its own simulated clock and RNG streams,
        so concurrent writes and compactions cannot perturb — or be
        observed by — queries against it.  Close it to release the pin.
        """
        self._check_open()
        from repro.lsm.snapshot import SnapshotView
        with self._file_lock:
            snapshot_id = self._snapshot_counter
            self._snapshot_counter += 1
        return SnapshotView(self, snapshot_id)

    def close(self) -> None:
        """Flush, stop background work, reclaim pins, and mark unusable.

        Obsolete files still queued for retirement are deleted (after a
        final durable manifest); the *current* version's files are of
        course kept, their mappings retired via the doomed-unmap path so
        a still-pinned region unmaps at its last unpin instead of
        tearing views out from under a straggling reader.

        If the final flush fails (a crashed device) the error
        propagates, but the tree still ends closed with its compactor
        thread stopped: a retry could only fail again, with the thread
        out of reach.  A second call is a no-op.
        """
        if self._closed:
            return
        try:
            self.flush()
            if self._background is not None:
                self._background.quiesce()
        finally:
            self._closed = True
            if self._background is not None:
                self._background.stop()
        #: Readers that never unpinned (leaked plans/iterators) are
        #: reclaimed here so their versions' tables can retire.
        self.leaked_pins = self.versions.force_release()
        self._commit_version()
        self.versions.close()
        for table in self.versions.drain_retired():
            table.reader.unmap()

    def charge_cost(self, base_us: float) -> None:
        """Charge an in-memory cost with the cost model's relative jitter.

        Used for every charge on the query path so the fast (memory-only)
        response mode has realistic spread (see ``COST_JITTER``).
        """
        self.clock.charge(
            base_us * max(0.1, self._cost_rng.gauss(1.0, COST_JITTER)))

    def _check_open(self) -> None:
        if self._closed:
            raise DBClosedError("operation on closed LSMTree")

    def _allocate_path(self) -> str:
        with self._file_lock:
            path = f"sst/{self._next_file:06d}.sst"
            self._next_file += 1
            return path

    def _write_manifest(self, manifest: Optional[Manifest] = None) -> None:
        entries = []
        for level, tables in enumerate(self.versions.current.levels):
            for table in tables:
                entries.append(ManifestEntry(level, table.path,
                                             table.num_entries,
                                             table.size_bytes))
        (manifest or self._manifest).write(entries)

    def _commit_version(self, manifest: Optional[Manifest] = None,
                        device: Optional[StorageDevice] = None) -> None:
        """Durably record the live version, then delete what it dropped.

        Obsolete files queued by version retirement are removed only
        here, after a manifest that no longer references them is durable
        — the crash-ordering contract (see :meth:`flush`).  The order
        under the commit lock matters: the retired queue is drained
        *before* the manifest snapshot is taken, so a table that loses
        its last reference during the manifest write stays queued for
        the next commit rather than being deleted out from under the
        manifest generation just written.  Background commits pass the
        silent manifest/device so their bookkeeping stays uncharged.
        """
        device = device or self.device
        with self._commit_lock:
            retired = self.versions.drain_retired()
            self._write_manifest(manifest)
            for table in retired:
                device.delete_file(table.path)
                table.reader.unmap()

    # ------------------------------------------------------------------ intro
    def describe(self) -> dict:
        """Summary of the tree's shape (reports, examples)."""
        current = self.versions.current
        return {
            "levels": current.describe(),
            "memtable_entries": len(self._memtable),
            "total_tables": current.total_tables(),
            "filter": (self.options.filter_builder.name
                       if self.options.filter_builder else None),
            "cache_used_bytes": self.cache.used_bytes,
        }
