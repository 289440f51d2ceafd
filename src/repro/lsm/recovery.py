"""Crash recovery: the reopen procedure and its structured report.

:func:`recover` (behind :meth:`repro.lsm.db.LSMTree.reopen`) rebuilds a
tree from its device and fills a :class:`RecoveryReport` as it goes:
which manifest generation it trusted, which tables it had to quarantine
(and why), how the WAL tail was classified, how many transient read
errors it retried through.  The report is the machine-checkable contract
the crash-torture suite asserts against, and the human-readable output
of ``prefix-siphoning doctor``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.common.errors import (
    CorruptionError,
    FileNotFoundInStoreError,
    StorageError,
    TransientIOError,
)
from repro.lsm.manifest import ManifestEntry, ManifestLoad
from repro.lsm.options import MAX_LEVELS
from repro.lsm.sstable import SSTable, SSTableReader
from repro.lsm.version import Version

#: How often recovery reissues a read that failed transiently before
#: giving up on the file.
TRANSIENT_OPEN_RETRIES = 3

#: Where untrusted files go; ``sst/000007.sst`` becomes
#: ``quarantine/sst_000007.sst``.
QUARANTINE_DIR = "quarantine/"

#: Quarantine reasons.
REASON_CORRUPT = "corrupt"          # open/parse failed checksum or bounds
REASON_MISSING = "missing"          # manifest references a file that is gone
REASON_UNREADABLE = "unreadable"    # transient errors persisted past retries


@dataclass(frozen=True)
class QuarantinedFile:
    """One file recovery refused to trust."""

    path: str
    reason: str
    #: Where the file was moved (None when it no longer existed).
    moved_to: Optional[str] = None
    detail: str = ""


@dataclass
class RecoveryReport:
    """Everything one ``reopen`` decided, for tests, ops and the CLI."""

    # -- manifest
    manifest_source: Optional[str] = None
    #: The primary manifest was unusable; a staged/previous copy won.
    manifest_fallback: bool = False
    manifest_unreadable: bool = False
    manifest_corrupt_entries: int = 0
    # -- tables
    tables_opened: int = 0
    quarantined: List[QuarantinedFile] = field(default_factory=list)
    #: On-device table files no manifest generation referenced (the
    #: half-born outputs of a crashed flush/compaction), swept aside.
    orphans_quarantined: List[str] = field(default_factory=list)
    # -- WAL
    wal_records_replayed: int = 0
    wal_tail_dropped: bool = False
    #: ``"torn"`` (frame cut short by the crash) or ``"checksum"``
    #: (complete frame, failed CRC) — see :mod:`repro.lsm.wal`.
    wal_tail_reason: Optional[str] = None
    wal_tail_dropped_bytes: int = 0
    # -- fault handling
    transient_retries: int = 0

    @property
    def clean(self) -> bool:
        """True iff recovery found nothing abnormal at all.

        A dropped torn WAL tail still counts as clean-adjacent crash
        recovery, but it *is* an abnormality worth surfacing — ``clean``
        is strict.
        """
        return (not self.quarantined
                and not self.orphans_quarantined
                and not self.wal_tail_dropped
                and not self.manifest_unreadable
                and self.manifest_corrupt_entries == 0
                and not self.manifest_fallback
                and self.transient_retries == 0)

    @property
    def data_suspect(self) -> bool:
        """True when recovery had to discard something it could not trust
        (quarantined tables, corrupt manifest entries, checksum-failed WAL
        tail) — the signals an operator must look at."""
        return bool(self.quarantined
                    or self.manifest_unreadable
                    or self.manifest_corrupt_entries
                    or self.wal_tail_reason in ("checksum", "unreadable"))

    def summary(self) -> str:
        """Multi-line human-readable report (the ``doctor`` output)."""
        lines = [f"recovery: {'clean' if self.clean else 'degraded'}"]
        lines.append(f"  manifest: {self.manifest_source or '(none)'}")
        if self.manifest_unreadable:
            lines.append("  manifest: UNREADABLE — no candidate parsed")
        if self.manifest_corrupt_entries:
            lines.append(f"  manifest: {self.manifest_corrupt_entries} "
                         f"entr{'y' if self.manifest_corrupt_entries == 1 else 'ies'} "
                         f"failed checksum (skipped)")
        lines.append(f"  tables: {self.tables_opened} opened, "
                     f"{len(self.quarantined)} quarantined")
        for item in self.quarantined:
            where = f" -> {item.moved_to}" if item.moved_to else ""
            detail = f" ({item.detail})" if item.detail else ""
            lines.append(f"    {item.path}: {item.reason}{where}{detail}")
        if self.orphans_quarantined:
            lines.append(f"  orphans: {len(self.orphans_quarantined)} "
                         f"unreferenced table file(s) swept to quarantine/")
        lines.append(f"  wal: {self.wal_records_replayed} records replayed")
        if self.wal_tail_dropped:
            lines.append(f"  wal: tail dropped ({self.wal_tail_reason}, "
                         f"{self.wal_tail_dropped_bytes} bytes)")
        if self.transient_retries:
            lines.append(f"  io: {self.transient_retries} transient read "
                         f"errors retried")
        return "\n".join(lines)


# ------------------------------------------------------------ the procedure

def recover(db) -> RecoveryReport:
    """Rebuild ``db`` (a fresh, empty tree) from its device.

    Built to survive a hostile disk, not just a clean restart: the
    manifest is loaded from the newest readable generation (``MANIFEST``
    / ``.new`` / ``.prev``), tables that cannot be opened — corrupt,
    missing, or persistently erroring — are quarantined instead of
    crashing recovery, unreferenced table files are swept aside, and the
    WAL tail is classified by checksum (torn vs corrupt) with everything
    after the first untrustworthy record dropped.

    Filters load from each table's persisted filter block; tables
    written without one (filterless configurations) fall back to
    rebuilding from their keys when the options supply a builder.
    """
    report = RecoveryReport()
    device = db.device
    try:
        load = _retry_transient(db._manifest.read_checked, report)
    except TransientIOError:
        load = ManifestLoad(unreadable=True)
    report.manifest_source = load.source
    report.manifest_fallback = (load.source is not None
                                and load.source != db._manifest.path)
    report.manifest_unreadable = load.unreadable
    report.manifest_corrupt_entries = load.corrupt_entries

    referenced = set()
    levels: List[List[SSTable]] = [[] for _ in range(MAX_LEVELS)]
    for entry in load.entries:
        referenced.add(entry.path)
        _bump_file_counter(db, entry.path)
        table = _recover_table(db, entry, report)
        if table is None:
            continue
        # Manifest order preserves L0's newest-first flush order;
        # deeper levels are re-sorted and overlap-checked on build.
        levels[entry.level].append(table)
        report.tables_opened += 1
    db.versions.reset(Version.from_levels(MAX_LEVELS, levels))

    # Table files no manifest generation references are the half-born
    # outputs of a flush or compaction that crashed before its manifest
    # commit (possibly torn mid-write); they carry only unacknowledged
    # state and must not shadow — or be confused with — live tables.
    # New tables are numbered past every name seen on the device,
    # earlier quarantines included: a later quarantine must never rename
    # over (and destroy) an earlier one's evidence.
    quarantined_table = QUARANTINE_DIR + "sst_"
    for path in device.list_files():
        if path.startswith(quarantined_table):
            _bump_file_counter(db, path[len(quarantined_table):])
        elif path.startswith("sst/") and path not in referenced:
            _bump_file_counter(db, path)
            _move_to_quarantine(db, path)
            report.orphans_quarantined.append(path)

    wal = db._wal
    try:
        records = _retry_transient(
            lambda: list(wal.replay(report)), report)
    except TransientIOError:
        # The WAL itself is persistently unreadable: recover the table
        # state and surface the loss loudly.
        records = []
        report.wal_tail_dropped = True
        report.wal_tail_reason = REASON_UNREADABLE
    db._memtable.put_many(records)
    if report.wal_tail_reason == REASON_UNREADABLE:
        if device.exists(wal.path):
            _quarantine(db, wal.path, REASON_UNREADABLE, report)
    elif report.wal_tail_dropped:
        # Rewrite the log to exactly the replayed records: appends from
        # the recovered process must never land after a dropped tail's
        # garbage, where the *next* recovery would discard them (a bug
        # the stateful crash tests caught).
        wal.reset()
        for record in records:
            wal.log_batch([record])  # an append (crash point) per record

    # When recovery diverged from what the primary manifest said —
    # fallback generation, corrupt entries or quarantined tables —
    # persist the recovered version so the next restart starts from a
    # clean, checksummed manifest.
    if (report.manifest_fallback or report.manifest_unreadable
            or report.manifest_corrupt_entries or report.quarantined):
        db._commit_version()
    return report


def _retry_transient(fn, report: RecoveryReport):
    """Call ``fn``, retrying through a bounded number of transient read
    errors (each retry restarts the whole — idempotent — call)."""
    budget = TRANSIENT_OPEN_RETRIES
    while True:
        try:
            return fn()
        except TransientIOError:
            report.transient_retries += 1
            budget -= 1
            if budget < 0:
                raise


def _open_table(db, entry: ManifestEntry) -> SSTable:
    """One attempt at opening a manifest-listed table (may raise)."""
    reader = SSTableReader.open(db.device, entry.path)
    min_key, max_key = reader.properties()
    filt = reader.load_filter()
    if filt is None and db.options.filter_builder is not None:
        keys = [key for key, _ in reader.records(db.cache)]
        filt = db.options.filter_builder.build(keys)
    return SSTable(path=entry.path, reader=reader, filter=filt,
                   min_key=min_key, max_key=max_key,
                   num_entries=entry.num_entries,
                   size_bytes=entry.size_bytes)


def _recover_table(db, entry: ManifestEntry,
                   report: RecoveryReport) -> Optional[SSTable]:
    """Open one manifest-listed table, or quarantine it and return None.

    Transient read errors are retried a bounded number of times (the
    whole open restarts — it is cheap and idempotent); corruption and
    missing files quarantine immediately.
    """
    try:
        return _retry_transient(lambda: _open_table(db, entry), report)
    except TransientIOError as exc:
        _quarantine(db, entry.path, REASON_UNREADABLE, report, str(exc))
    except FileNotFoundInStoreError as exc:
        report.quarantined.append(QuarantinedFile(
            entry.path, REASON_MISSING, None, str(exc)))
    except (CorruptionError, StorageError) as exc:
        _quarantine(db, entry.path, REASON_CORRUPT, report, str(exc))
    return None


def _move_to_quarantine(db, path: str) -> str:
    """Move a file out of the data namespace, keeping it for post-mortem
    instead of deleting possibly-recoverable bytes; returns where to."""
    moved_to = QUARANTINE_DIR + path.replace("/", "_")
    db.device.rename(path, moved_to)
    db.cache.invalidate_file(path)
    return moved_to


def _quarantine(db, path: str, reason: str, report: RecoveryReport,
                detail: str = "") -> None:
    """Record ``path`` as untrusted, moving it aside if it still exists."""
    moved_to = _move_to_quarantine(db, path) if db.device.exists(path) \
        else None
    report.quarantined.append(QuarantinedFile(path, reason, moved_to, detail))


def _bump_file_counter(db, path: str) -> None:
    """Keep ``db``'s next table number past the one ``path`` carries."""
    try:
        number = int(path.split("/")[-1].split(".")[0])
    except ValueError:
        return
    db._next_file = max(db._next_file, number + 1)
