"""Compaction policies: leveled (default) and size-tiered.

Leveled has two triggers, checked after every flush (paper section 2.2:
compaction "unifies SSTs between levels to eliminate duplicate (stale)
key-value pairs"):

* **L0 trigger** — when the number of L0 flushes reaches
  ``l0_compaction_trigger``, all L0 tables merge with the overlapping part
  of L1 into fresh L1 tables.
* **Size trigger** — when level ``i >= 1`` exceeds its byte budget
  (``base_level_size_bytes * multiplier^(i-1)``), its first table merges
  with the overlapping part of level ``i+1``.

Merged outputs are split at ``sstable_target_bytes``; tombstones are
dropped only when the output level is the bottommost populated level
(below it nothing can be shadowed).  Results are installed as
:class:`~repro.lsm.version.VersionEdit`\\ s against the
:class:`~repro.lsm.version.VersionSet`: readers pinned to older versions
keep their table set, and an input table's file is deleted only after the
manifest that forgets it is durable *and* its last pinning version has
dropped (the version-lifetime fold of PR 3's retire/drain deferral).

The size-tiered style (``compaction_style="tiered"``) instead keeps every
run in L0 and merges recency-adjacent runs of similar size — Cassandra's
classic policy — trading read-path fan-out (more runs, more filter checks
per ``get``) for lower write amplification.

:class:`BackgroundCompactor` drives a second Compactor instance — bound
to a silent device view and a private cache — on a daemon thread, so
compaction overlaps serving without charging the store's simulated clock
or blocking its read path.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Callable, List, Optional, Tuple

from repro.common.errors import CompactionError
from repro.lsm.options import MAX_LEVELS, TIER_SIZE_RATIO, LSMOptions
from repro.lsm.table_build import (
    build_table_artifact,
    install_artifact,
    merge_sorted_runs,
    plan_split_points,
    split_records,
)
from repro.lsm.sstable import SSTable
from repro.lsm.version import Version, VersionEdit, VersionSet
from repro.storage.device import StorageDevice
from repro.storage.page_cache import PageCache


class Compactor:
    """Runs compactions against a :class:`VersionSet` via edits.

    ``device``/``cache`` are where the merge reads inputs and writes
    outputs — the real device for inline compaction, a silent view plus
    a private cache for background compaction.  ``invalidate_cache`` is
    the *serving* cache, invalidated for removed tables at install time
    regardless of which cache the merge read through.  When outputs are
    built over a silent view, ``rebind_device`` points their readers
    back at the real device before install, so foreground reads of the
    new tables charge the real clock.
    """

    def __init__(self, device: StorageDevice, cache: PageCache,
                 options: LSMOptions, versions: VersionSet,
                 allocate_path,
                 invalidate_cache: Optional[PageCache] = None,
                 rebind_device: Optional[StorageDevice] = None) -> None:
        self.device = device
        self.cache = cache
        self.options = options
        self.versions = versions
        self._allocate_path = allocate_path
        self.invalidate_cache = invalidate_cache or cache
        self.rebind_device = rebind_device
        self.compactions_run = 0

    @property
    def version(self) -> Version:
        """The current version (re-read on every trigger check)."""
        return self.versions.current

    # ----------------------------------------------------------------- policy

    def maybe_compact(self) -> int:
        """Run compactions until no trigger fires; returns how many ran."""
        if self.options.compaction_style == "tiered":
            return self._maybe_compact_tiered()
        ran = 0
        while True:
            current = self.versions.current
            if len(current.levels[0]) >= self.options.l0_compaction_trigger:
                self._compact_l0(current)
                ran += 1
                continue
            level = self._oversized_level(current)
            if level is not None:
                self._compact_level(current, level)
                ran += 1
                continue
            return ran

    def pending(self) -> bool:
        """Whether any compaction trigger currently fires."""
        current = self.versions.current
        if self.options.compaction_style == "tiered":
            groups = self._group_runs(list(current.levels[0]))
            return self._find_tier_window(groups) is not None
        return (len(current.levels[0]) >= self.options.l0_compaction_trigger
                or self._oversized_level(current) is not None)

    # ----------------------------------------------------- tiered compaction

    def _maybe_compact_tiered(self) -> int:
        """Size-tiered/universal policy: merge recency-adjacent runs of
        similar size (every run lives in L0 and may overlap).

        Only *consecutive* runs (in recency order) may merge: merging
        across a gap would reorder shadowing between versions of a key.
        Tombstones drop only when the merge window reaches the oldest run.

        A "run" is a *group* of consecutive, key-disjoint, ascending L0
        tables (:meth:`_group_runs`): since merges split their output at
        ``sstable_target_bytes``, one sorted run may span several tables,
        and sizing the merge window on individual tables would see the
        split pieces as small similar-size runs and re-merge them forever.

        The edit names only the merged run and its inputs; the version
        set splices the run in where its first input stands *at install
        time*, so flushes that landed while a background merge was
        running stay in front of it.
        """
        ran = 0
        while True:
            current = self.versions.current
            groups = self._group_runs(list(current.levels[0]))
            window = self._find_tier_window(groups)
            if window is None:
                return ran
            start, end = window
            inputs = [t for group in groups[start:end] for t in group]
            oldest_included = end == len(groups)
            merged = self._merge_tables(inputs,
                                        drop_tombstones=oldest_included)
            self._install(VersionEdit(0, merged, inputs))
            ran += 1

    def merge_all_runs(self) -> None:
        """Full compaction for the tiered style: all runs become one
        (split into ``sstable_target_bytes`` tables like leveled merges)."""
        runs = list(self.versions.current.levels[0])
        if len(runs) <= 1:
            return
        merged = self._merge_tables(runs, drop_tombstones=True)
        self._install(VersionEdit(0, merged, runs))

    @staticmethod
    def _group_runs(tables: List[SSTable]) -> List[List[SSTable]]:
        """Group L0 tables (newest first) into sorted runs.

        Consecutive tables in strictly ascending, disjoint key order form
        one run — the shape a split merge output has.  Grouping is purely
        structural, so it survives reopen with no manifest change; two
        genuinely distinct but disjoint runs that chain this way are safe
        to treat as one (disjoint ranges cannot shadow each other).
        """
        groups: List[List[SSTable]] = []
        for table in tables:
            if groups and groups[-1][-1].max_key < table.min_key:
                groups[-1].append(table)
            else:
                groups.append([table])
        return groups

    def _find_tier_window(self, groups: List[List[SSTable]]
                          ) -> Optional[Tuple[int, int]]:
        trigger = max(self.options.l0_compaction_trigger, 2)
        if len(groups) < trigger:
            return None
        sizes = [sum(t.size_bytes for t in group) for group in groups]
        # Longest consecutive window (newest first) of similar-size runs.
        for start in range(len(groups) - trigger + 1):
            end = start + 1
            smallest = largest = sizes[start]
            while end < len(groups):
                size = sizes[end]
                if max(largest, size) > TIER_SIZE_RATIO * min(smallest, size):
                    break
                smallest = min(smallest, size)
                largest = max(largest, size)
                end += 1
            if end - start >= trigger:
                return start, end
        return None

    def level_target_bytes(self, level: int) -> int:
        """Byte budget of ``level`` (levels >= 1)."""
        return (self.options.base_level_size_bytes
                * self.options.level_size_multiplier ** (level - 1))

    def _oversized_level(self, current: Version):
        # The last level has nowhere to push data; never select it.
        for level in range(1, MAX_LEVELS - 1):
            if current.level_bytes(level) > self.level_target_bytes(level):
                return level
        return None

    # ------------------------------------------------------------- compaction

    def _compact_l0(self, current: Version) -> None:
        inputs_new = list(current.levels[0])
        low = min(t.min_key for t in inputs_new)
        high = max(t.max_key for t in inputs_new)
        inputs_old = current.overlapping(1, low, high)
        self._merge(inputs_new, inputs_old, target_level=1)

    def compact_level_fully(self, level: int) -> None:
        """Merge every table of ``level`` into ``level + 1``.

        The full-compaction step ``compact_all`` drives top-down; the
        merge drops tombstones when ``level + 1`` is the bottommost
        populated level, like every other merge.
        """
        current = self.versions.current
        newer = list(current.levels[level])
        low = min(t.min_key for t in newer)
        high = max(t.max_key for t in newer)
        older = current.overlapping(level + 1, low, high)
        self._merge(newer, older, target_level=level + 1)

    def _compact_level(self, current: Version, level: int) -> None:
        table = current.levels[level][0]
        inputs_old = current.overlapping(level + 1, table.min_key,
                                         table.max_key)
        self._merge([table], inputs_old, target_level=level + 1)

    def _merge(self, newer: List[SSTable], older: List[SSTable],
               target_level: int) -> None:
        removed = newer + older
        drop_tombstones = self._is_bottom(target_level)
        outputs = self._merge_tables(removed, drop_tombstones)
        self._install(VersionEdit(target_level, outputs, removed))
        if not outputs and not drop_tombstones and any(
            t.num_entries for t in removed
        ):
            raise CompactionError("compaction dropped live entries")

    def _install(self, edit: VersionEdit) -> None:
        """Install an edit and invalidate the serving cache's stale pages.

        The removed tables' *files* are not touched here: the version set
        queues each for retirement when its last referencing version dies,
        and the db deletes queued files only after the next durable
        manifest (crash ordering, PR 3).
        """
        if self.rebind_device is not None:
            for table in edit.added:
                table.reader.rebind(self.rebind_device)
        self.versions.install(edit)
        for table in edit.removed:
            self.invalidate_cache.invalidate_file(table.path)
        self.compactions_run += 1

    def _merge_tables(self, tables: List[SSTable],
                      drop_tombstones: bool) -> List[SSTable]:
        """Merge input tables (newest first) into target-size outputs.

        Outputs split at ``sstable_target_bytes`` and at key-range
        boundaries that depend only on the inputs
        (:func:`plan_split_points`).  Every effect happens in a fixed
        order: (1) read *all* input records, newest table first, block by
        block through the page cache, so device charges, RNG draws and
        cache traffic are one deterministic sequence; (2) per key range,
        in key order, merge the tables' record slices (shadowing,
        tombstone drop), cut the result into tables, and build (pure)
        then install each one — so files are numbered and written in key
        order.
        """
        loaded = [self._load_table_records(t) for t in tables]
        options = self.options
        points = plan_split_points(tables, options.sstable_target_bytes)
        bounds: List[Optional[bytes]] = [b"", *points, None]
        outputs: List[SSTable] = []
        for low, high in zip(bounds, bounds[1:]):
            runs = []
            for keys, records in loaded:
                lo = bisect_left(keys, low) if low else 0
                hi = bisect_left(keys, high) if high is not None else len(records)
                if lo < hi:
                    runs.append(records[lo:hi])
            if not runs:
                continue
            merged = merge_sorted_runs(runs, drop_tombstones)
            for chunk in split_records(merged, options.block_size_bytes,
                                       options.sstable_target_bytes):
                artifact = build_table_artifact(
                    chunk, options.block_size_bytes, options.filter_builder)
                outputs.append(install_artifact(
                    self.device, self._allocate_path(), artifact))
        return outputs

    def _load_table_records(self, table: SSTable):
        """Read one input table's records through the cache (effect phase)."""
        records = table.reader.records(self.cache)
        return [key for key, _ in records], records

    def _is_bottom(self, target_level: int) -> bool:
        current = self.versions.current
        return all(not current.levels[lvl]
                   for lvl in range(target_level + 1, MAX_LEVELS))


class BackgroundCompactor:
    """Daemon thread draining compaction triggers off the serving path.

    ``kick`` wakes the thread (called after each flush install);
    ``quiesce`` blocks until no work is pending or in flight (called by
    ``compact_all`` and close so inline full compaction never races a
    background merge); ``stop`` shuts the thread down.  The first
    exception raised by background work is latched and re-raised to the
    next quiesce/stop caller — background failures are never silent.

    ``work`` runs one full trigger-drain + commit cycle; the caller
    (the db) supplies it and is responsible for serializing merges with
    any inline compaction via its compaction lock.
    """

    def __init__(self, work: Callable[[], None]) -> None:
        self._work = work
        self._cond = threading.Condition()
        self._pending = False
        self._busy = False
        self._stopped = False
        self._error: Optional[BaseException] = None
        self.cycles = 0
        self._thread = threading.Thread(
            target=self._run, name="lsm-background-compaction", daemon=True)
        self._thread.start()

    def kick(self) -> None:
        """Schedule a trigger check (idempotent while one is pending)."""
        with self._cond:
            if self._stopped:
                return
            self._pending = True
            self._cond.notify_all()

    def quiesce(self) -> None:
        """Wait until no background work is pending or running."""
        with self._cond:
            while (self._pending or self._busy) and not self._stopped:
                self._cond.wait()
        self._reraise()

    def stop(self) -> None:
        """Finish in-flight work, stop the thread, surface any error."""
        with self._cond:
            self._stopped = True
            self._cond.notify_all()
        self._thread.join(timeout=60.0)
        self._reraise()

    def _reraise(self) -> None:
        error, self._error = self._error, None
        if error is not None:
            raise CompactionError(
                f"background compaction failed: {error!r}") from error

    def _run(self) -> None:
        while True:
            with self._cond:
                while not self._pending and not self._stopped:
                    self._cond.wait()
                if self._stopped:
                    return
                self._pending = False
                self._busy = True
            try:
                self._work()
            except BaseException as exc:  # latched, re-raised to callers
                if self._error is None:
                    self._error = exc
            finally:
                with self._cond:
                    self._busy = False
                    self.cycles += 1
                    self._cond.notify_all()
