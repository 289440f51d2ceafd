"""Level structure of the tree, as immutable MVCC versions.

Level 0 holds whole-memtable flushes, newest first, whose key ranges may
overlap; levels 1 and deeper hold non-overlapping tables sorted by key
range, so a point lookup touches at most one table per deep level.  This
is the paper's section 2.2 layout and the reason a non-present key without
filters would cost one probe per L0 table plus one per deeper level.

MVCC model (DESIGN.md section 12):

* :class:`Version` is **immutable** — levels are tuples of tuples.  A
  reader holding a version can walk it without any lock, concurrently
  with flushes and compactions, and always sees one consistent table set.
* :class:`VersionEdit` is a description of a change (tables added at
  one level, tables removed); :meth:`Version.apply` produces the
  successor version without touching the original.
* :class:`VersionSet` owns the current version and the refcounts: readers
  :meth:`~VersionSet.pin` the version they start from and
  :meth:`~VersionSet.unpin` it when done; an SSTable's file is retired
  only once no live version (current or pinned) references it any more —
  this folds the old ``retire``/``drain_obsolete`` deferral into version
  lifetime.
"""

from __future__ import annotations

import threading
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.common.errors import CompactionError, LSMError
from repro.lsm.sstable import SSTable


def _sorted_level(tables: Sequence[SSTable], level: int) -> Tuple[SSTable, ...]:
    """Sort a deep level by min_key and validate non-overlap."""
    ordered = sorted(tables, key=lambda t: t.min_key)
    for i in range(1, len(ordered)):
        if ordered[i - 1].max_key >= ordered[i].min_key:
            raise LSMError(
                f"overlapping tables installed at level {level}: "
                f"{ordered[i - 1].path} and {ordered[i].path}"
            )
    return tuple(ordered)


@dataclass(frozen=True)
class VersionEdit:
    """A described change from one version to its successor.

    One shape covers every mutation the tree performs: drop ``removed``
    (by path, from every level) and insert ``added`` at ``level``.

    * flush — ``VersionEdit(0, [table], [])``: nothing removed, so the
      table is prepended to L0 (newest first).
    * leveled compaction / bulk load — ``VersionEdit(level, outputs,
      inputs)`` with ``level >= 1``: the level is re-sorted by key and
      overlap-checked.
    * tiered compaction — ``VersionEdit(0, merged, inputs)``: the merged
      run is spliced in where its first input stood, so it keeps the
      inputs' recency slot no matter how many flushes were prepended
      between planning the merge and installing it.
    """

    level: int
    added: Tuple[SSTable, ...]
    removed: Tuple[SSTable, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "added", tuple(self.added))
        object.__setattr__(self, "removed", tuple(self.removed))


class Version:
    """Immutable registry of live SSTables per level.

    ``levels`` is a tuple of per-level tuples: level 0 in newest-first
    flush order, deeper levels sorted by ``min_key``.  All read methods
    are safe to call from any thread without locks; updates go through
    :meth:`apply`, which returns a new version.
    """

    __slots__ = ("max_levels", "levels", "_deep", "_max_keys", "_min_keys")

    def __init__(self, max_levels: int,
                 levels: Optional[Sequence[Sequence[SSTable]]] = None) -> None:
        self.max_levels = max_levels
        if levels is None:
            self.levels: Tuple[Tuple[SSTable, ...], ...] = tuple(
                () for _ in range(max_levels))
        else:
            self.levels = tuple(tuple(tables) for tables in levels)
        #: The non-empty levels below L0, top-down: all a search visits.
        self._deep = tuple(level for level in range(1, len(self.levels))
                           if self.levels[level])
        # Lazily-built per-level min/max_key arrays for binary search on
        # the hot paths.  Safe under concurrency: the computed list is
        # identical no matter which thread builds it first.
        self._max_keys: List[Optional[List[bytes]]] = [None] * max_levels
        self._min_keys: List[Optional[List[bytes]]] = [None] * max_levels

    @classmethod
    def from_levels(cls, max_levels: int,
                    levels: Sequence[Sequence[SSTable]]) -> "Version":
        """Build a version from recovered levels, validating deep levels.

        L0 order is preserved as given (reopen reconstructs newest-first
        from the manifest); levels 1+ are sorted and overlap-checked.
        """
        fixed: List[Tuple[SSTable, ...]] = [tuple(levels[0])] if levels else []
        for level in range(1, max_levels):
            tables = levels[level] if level < len(levels) else ()
            fixed.append(_sorted_level(tables, level))
        if not fixed:
            fixed = [()] * max_levels
        return cls(max_levels, fixed)

    # ---------------------------------------------------------------- updates

    def apply(self, edit: VersionEdit) -> "Version":
        """Produce the successor version described by ``edit``.

        The edit is applied to *this* version, whatever the edit's author
        was looking at when it was planned: at level 0 ``added`` lands at
        the position of the first removed L0 table still present here
        (front of the level when none is removed).
        """
        levels: List[Tuple[SSTable, ...]] = list(self.levels)
        at = 0
        if edit.removed:
            removed = {t.path for t in edit.removed}
            at = next((index for index, table in enumerate(levels[0])
                       if table.path in removed), 0)
            levels = [tuple(t for t in tables if t.path not in removed)
                      for tables in levels]
        if edit.level == 0:
            levels[0] = levels[0][:at] + edit.added + levels[0][at:]
        elif edit.added:
            levels[edit.level] = _sorted_level(
                levels[edit.level] + edit.added, edit.level)
        return Version(self.max_levels, levels)

    # ----------------------------------------------------------------- search

    def candidates_for_key(self, key: bytes) -> Iterator[SSTable]:
        """Tables that might hold ``key``, newest data first.

        This is the top-down search order of a ``get``: all covering L0
        tables (newest first), then the single covering table per deeper
        level (only the non-empty ones are visited).
        """
        for table in self.levels[0]:
            if table.covers(key):
                yield table
        for level in self._deep:
            table = self._find_in_level(level, key)
            if table is not None:
                yield table

    def candidates_for_keys(self, keys: Sequence[bytes]
                            ) -> List[Tuple[SSTable, ...]]:
        """``tuple(self.candidates_for_key(key))`` for every key, in one walk.

        A walk also derives the key range ``[low, high)`` over which its
        answer holds: the spans of the tables it found, the gaps between
        the tables it missed.  The next keys inside that range share the
        walk's tuple — the same object — without walking, so a sorted
        batch (an extension chunk: one prefix's consecutive suffixes)
        walks once per table edge it crosses, and its consumers can take
        a run of keys with one candidate tuple as one unit.
        """
        level0 = self.levels[0]
        deep = [(self.levels[level], self._level_max_keys(level))
                for level in self._deep]
        out: List[Tuple[SSTable, ...]] = []
        append = out.append
        found: Optional[Tuple[SSTable, ...]] = None
        low = b""
        high: Optional[bytes] = None  # None: no upper bound
        for key in keys:
            if (found is not None and low <= key
                    and (high is None or key < high)):
                append(found)
                continue
            tables: List[SSTable] = []
            low, high = b"", None
            for table in level0:
                if key < table.min_key:
                    if high is None or table.min_key < high:
                        high = table.min_key
                    continue
                after = table.max_key + b"\x00"  # the least key past it
                if key >= after:
                    if after > low:
                        low = after
                    continue
                tables.append(table)
                if table.min_key > low:
                    low = table.min_key
                if high is None or after < high:
                    high = after
            for level_tables, max_keys in deep:
                index = bisect_left(max_keys, key)
                if index:
                    after = max_keys[index - 1] + b"\x00"
                    if after > low:
                        low = after
                if index == len(level_tables):
                    continue
                table = level_tables[index]
                if key < table.min_key:
                    if high is None or table.min_key < high:
                        high = table.min_key
                    continue
                tables.append(table)
                if table.min_key > low:
                    low = table.min_key
                after = table.max_key + b"\x00"
                if high is None or after < high:
                    high = after
            found = tuple(tables)
            append(found)
        return out

    def _level_max_keys(self, level: int) -> List[bytes]:
        max_keys = self._max_keys[level]
        if max_keys is None:
            max_keys = [t.max_key for t in self.levels[level]]
            self._max_keys[level] = max_keys
        return max_keys

    def _find_in_level(self, level: int, key: bytes) -> Optional[SSTable]:
        tables = self.levels[level]
        max_keys = self._level_max_keys(level)
        index = bisect_left(max_keys, key)
        if index < len(tables) and tables[index].covers(key):
            return tables[index]
        return None

    def overlapping(self, level: int, low: bytes, high: bytes) -> List[SSTable]:
        """Tables at ``level`` intersecting ``[low, high]``, in level order.

        Deep levels are sorted and non-overlapping, so both their
        ``min_key`` and ``max_key`` sequences ascend and the intersecting
        tables form one contiguous slice: two bisects replace the linear
        sweep.  L0 runs overlap arbitrarily and keep the scan.  The
        range-descent attack calls this ~10^6 times per run (via
        ``range_filters_pass``), so this is the hot path at paper scale.
        """
        tables = self.levels[level]
        if level == 0 or not tables:
            return [t for t in tables if t.overlaps(low, high)]
        max_keys = self._level_max_keys(level)
        min_keys = self._min_keys[level]
        if min_keys is None:
            min_keys = [t.min_key for t in tables]
            self._min_keys[level] = min_keys
        start = bisect_left(max_keys, low)
        stop = bisect_right(min_keys, high)
        return list(tables[start:stop])

    # ------------------------------------------------------------------ stats

    def level_bytes(self, level: int) -> int:
        """Total file bytes at ``level``."""
        return sum(t.size_bytes for t in self.levels[level])

    def total_tables(self) -> int:
        """Live table count across all levels."""
        return sum(len(tables) for tables in self.levels)

    def all_tables(self) -> Iterator[SSTable]:
        """Every live table, L0 first."""
        for tables in self.levels:
            yield from tables

    def describe(self) -> List[dict]:
        """Per-level summary rows for reports and debugging."""
        out = []
        for level, tables in enumerate(self.levels):
            if not tables:
                continue
            out.append({
                "level": level,
                "tables": len(tables),
                "bytes": self.level_bytes(level),
                "entries": sum(t.num_entries for t in tables),
            })
        return out


class VersionSet:
    """The chain of versions plus reader refcounts and table lifetimes.

    ``current`` is a plain attribute: reading it is a single atomic load
    (Python reference assignment), so the hot read path never takes the
    lock.  Everything that *changes* state — pinning, unpinning,
    installing — synchronizes on ``_lock``.

    Table lifetime rule: a table's file may be deleted only when no
    *live* version (the current one, or any version still pinned by a
    reader) references it.  ``install`` moves tables that drop to zero
    references onto the retired queue immediately; a table still pinned
    by an old version joins the queue when that version's last pin is
    released.  :meth:`drain_retired` hands the queue to the caller —
    the db consumes it at manifest-commit time, keeping PR 3's crash
    ordering (never delete before the manifest that forgets the table
    is durable).
    """

    def __init__(self, initial: Version) -> None:
        self.current = initial
        self._lock = threading.Lock()
        #: version -> outstanding reader pins.
        self._pins: Dict[Version, int] = {}
        #: path -> number of live versions referencing the table.
        self._table_refs: Dict[str, int] = {}
        #: tables whose last reference dropped; awaiting physical retire.
        self._retired: List[SSTable] = []
        self._closed = False
        for table in initial.all_tables():
            self._table_refs[table.path] = 1

    def reset(self, version: Version) -> None:
        """Replace the chain with a recovered version (reopen only).

        Only legal while nothing is pinned: recovery runs before the
        tree serves any reader.
        """
        with self._lock:
            if self._pins:
                raise LSMError("cannot reset a version set with active pins")
            self.current = version
            self._table_refs = {t.path: 1 for t in version.all_tables()}
            self._retired = []

    # --------------------------------------------------------------- pinning

    def pin(self) -> Version:
        """Acquire the current version for a reader; pair with unpin."""
        with self._lock:
            version = self.current
            self._pins[version] = self._pins.get(version, 0) + 1
            return version

    def unpin(self, version: Version) -> None:
        """Release a reader's pin; may retire tables the version held."""
        with self._lock:
            count = self._pins.get(version)
            if count is None:
                raise LSMError("unpin of a version that is not pinned")
            if count > 1:
                self._pins[version] = count - 1
                return
            del self._pins[version]
            if version is not self.current:
                self._release_tables(version)

    # ------------------------------------------------------------- installing

    def install(self, edit: VersionEdit) -> Version:
        """Apply ``edit`` to the current version and make the result
        current.

        Conflict rule: every path the edit removes must still be live in
        the current version.  A background compaction that lost a race
        (its inputs already compacted away by someone else) gets a
        :class:`CompactionError` and should retry against the new
        current version.
        """
        with self._lock:
            if self._closed:
                raise LSMError("version set is closed")
            base = self.current
            live = {t.path for t in base.all_tables()}
            for table in edit.removed:
                if table.path not in live:
                    raise CompactionError(
                        f"version edit removes {table.path} which is not "
                        f"live; a concurrent install won the race")
            successor = base.apply(edit)
            for table in successor.all_tables():
                self._table_refs[table.path] = \
                    self._table_refs.get(table.path, 0) + 1
            self.current = successor
            if base not in self._pins:
                self._release_tables(base)
        return successor

    def _release_tables(self, version: Version) -> None:
        """Drop ``version``'s table references (lock held by caller)."""
        for table in version.all_tables():
            refs = self._table_refs[table.path] - 1
            if refs:
                self._table_refs[table.path] = refs
            else:
                del self._table_refs[table.path]
                self._retired.append(table)

    def drain_retired(self) -> List[SSTable]:
        """Hand over tables whose last reference has dropped."""
        with self._lock:
            retired, self._retired = self._retired, []
            return retired

    # ------------------------------------------------------------ inspection

    def pinned_count(self) -> int:
        """Outstanding reader pins across all versions."""
        with self._lock:
            return sum(self._pins.values())

    def live_versions(self) -> int:
        """Distinct live versions (current plus distinct pinned ones)."""
        with self._lock:
            live = set(self._pins)
            live.add(self.current)
            return len(live)

    def table_ref(self, path: str) -> int:
        """Live-version reference count for one table path (tests)."""
        with self._lock:
            return self._table_refs.get(path, 0)

    # --------------------------------------------------------------- closing

    def force_release(self) -> int:
        """Drop every outstanding pin (db close); returns the leak count.

        A nonzero return means a reader was still pinned at close — the
        db records it as ``leaked_pins`` so the torture suites can
        assert zero.
        """
        with self._lock:
            leaked = sum(self._pins.values())
            for version in list(self._pins):
                del self._pins[version]
                if version is not self.current:
                    self._release_tables(version)
            return leaked

    def close(self) -> int:
        """Force-release pins and retire the current version's tables."""
        with self._lock:
            if self._closed:
                return 0
        leaked = self.force_release()
        with self._lock:
            self._closed = True
            self._release_tables(self.current)
            return leaked
