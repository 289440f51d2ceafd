"""Compaction tests: triggers, merging, tombstone GC, file lifecycle."""

import pytest

from repro.common.rng import make_rng
from repro.filters.bloom import BloomFilterBuilder
from repro.lsm.db import LSMTree
from repro.lsm.options import LSMOptions


def small_options(**overrides):
    defaults = dict(
        memtable_size_bytes=8 * 1024,
        sstable_target_bytes=8 * 1024,
        l0_compaction_trigger=3,
        base_level_size_bytes=32 * 1024,
        level_size_multiplier=4,
        page_cache_bytes=256 * 1024,
        filter_builder=BloomFilterBuilder(10),
    )
    defaults.update(overrides)
    return LSMOptions(**defaults)


def populate(db, count, seed=0, value=b"v" * 40):
    rng = make_rng(seed, "compact")
    model = {}
    for _ in range(count):
        key = rng.random_bytes(5)
        db.put(key, value + key)
        model[key] = value + key
    return model


class TestTriggers:
    def test_l0_drains_below_trigger(self):
        db = LSMTree(small_options())
        populate(db, 3000)
        assert len(db.version.levels[0]) < db.options.l0_compaction_trigger

    def test_levels_respect_size_budgets(self):
        db = LSMTree(small_options())
        populate(db, 6000)
        compactor = db._compactor
        for level in range(1, db.version.max_levels - 1):
            assert (db.version.level_bytes(level)
                    <= compactor.level_target_bytes(level))

    def test_deep_levels_never_overlap(self):
        db = LSMTree(small_options())
        populate(db, 5000)
        for level in range(1, db.version.max_levels):
            tables = db.version.levels[level]
            for a, b in zip(tables, tables[1:]):
                assert a.max_key < b.min_key


class TestCorrectness:
    def test_reads_survive_compaction(self):
        db = LSMTree(small_options())
        model = populate(db, 4000)
        db.compact_all()
        items = sorted(model.items())
        for key, value in items[::97]:
            assert db.get(key) == value

    def test_newest_value_wins_across_levels(self):
        db = LSMTree(small_options())
        key = b"\x42" * 5
        db.put(key, b"old")
        db.compact_all()
        db.put(key, b"new")
        db.compact_all()
        assert db.get(key) == b"new"

    def test_tombstones_dropped_at_bottom(self):
        db = LSMTree(small_options())
        model = populate(db, 1500)
        victims = sorted(model)[:200]
        for key in victims:
            db.delete(key)
        db.compact_all()
        for key in victims[::19]:
            assert db.get(key) is None
        total_entries = sum(t.num_entries for t in db.version.all_tables())
        # Tombstones were garbage collected, not retained.
        assert total_entries == len(model) - len(victims)

    def test_old_files_deleted_from_device(self):
        db = LSMTree(small_options())
        populate(db, 4000)
        db.compact_all()
        live = {t.path for t in db.version.all_tables()}
        on_disk = {p for p in db.device.list_files() if p.startswith("sst/")}
        assert on_disk == live

    def test_compacted_files_invalidated_in_cache(self):
        db = LSMTree(small_options())
        model = populate(db, 3000)
        db.compact_all()
        live = {t.path for t in db.version.all_tables()}
        for key in list(model)[:50]:
            db.get(key)
        cached_paths = {key[0] for key in db.cache._pages}
        assert cached_paths <= live


class TestCompactionRuns:
    def test_compaction_counter(self):
        db = LSMTree(small_options())
        populate(db, 3000)
        assert db._compactor.compactions_run > 0
