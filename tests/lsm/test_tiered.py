"""Size-tiered compaction tests."""

import pytest

from repro.common.errors import ConfigError
from repro.common.rng import make_rng
from repro.filters.bloom import BloomFilterBuilder
from repro.lsm.db import LSMTree
from repro.lsm.options import LSMOptions


def tiered_options(**overrides):
    defaults = dict(
        compaction_style="tiered",
        memtable_size_bytes=8 * 1024,
        sstable_target_bytes=8 * 1024,
        l0_compaction_trigger=4,
        page_cache_bytes=256 * 1024,
        filter_builder=BloomFilterBuilder(10),
    )
    defaults.update(overrides)
    return LSMOptions(**defaults)


def populate(db, count, seed=0):
    rng = make_rng(seed, "tiered")
    model = {}
    for _ in range(count):
        key = rng.random_bytes(5)
        db.put(key, key[::-1] * 4)
        model[key] = key[::-1] * 4
    return model


class TestTieredPolicy:
    def test_runs_stay_in_l0(self):
        db = LSMTree(tiered_options())
        populate(db, 4000)
        assert db.version.levels[0]
        assert all(not db.version.levels[lvl]
                   for lvl in range(1, db.version.max_levels))

    def test_similar_size_runs_merge(self):
        db = LSMTree(tiered_options())
        populate(db, 6000)
        # Without merging there would be dozens of memtable-sized runs.
        # Merged outputs split at sstable_target_bytes, so count sorted
        # *runs* (groups of consecutive disjoint tables), not tables.
        groups = db._compactor._group_runs(db.version.levels[0])
        assert len(groups) < 12
        assert db._compactor.compactions_run > 0

    def test_reads_correct_across_runs(self):
        db = LSMTree(tiered_options())
        model = populate(db, 5000)
        for key, value in list(model.items())[::173]:
            assert db.get(key) == value
        rng = make_rng(9, "probe")
        for _ in range(300):
            key = rng.random_bytes(5)
            assert db.get(key) == model.get(key)

    def test_newest_wins_across_runs(self):
        db = LSMTree(tiered_options())
        key = b"\x10" * 5
        db.put(key, b"old")
        db.flush()
        populate(db, 2000, seed=1)
        db.put(key, b"new")
        db.flush()
        assert db.get(key) == b"new"

    def test_range_queries_merge_runs(self):
        db = LSMTree(tiered_options())
        model = populate(db, 3000)
        skeys = sorted(model)
        lo, hi = skeys[100], skeys[200]
        got = db.range_query(lo, hi)
        assert got == [(k, model[k]) for k in skeys[100:201]]

    def test_compact_all_yields_single_run(self):
        db = LSMTree(tiered_options())
        model = populate(db, 4000)
        deleted = sorted(model)[:100]
        for key in deleted:
            db.delete(key)
        db.compact_all()
        # One sorted run, split into target-sized tables.
        groups = db._compactor._group_runs(db.version.levels[0])
        assert len(groups) == 1
        for key in deleted[::9]:
            assert db.get(key) is None
        # Tombstones were dropped in the full merge.
        assert (sum(t.num_entries for t in db.version.levels[0])
                == len(model) - len(deleted))

    def test_merged_runs_split_at_target(self):
        # Regression: tiered merges used to emit one giant run table,
        # ignoring sstable_target_bytes entirely.
        db = LSMTree(tiered_options())
        populate(db, 4000)
        db.compact_all()
        tables = db.version.levels[0]
        assert len(tables) > 1
        target = db.options.sstable_target_bytes
        # Every table closed near the target: none grossly oversized.
        assert all(t.size_bytes < 2 * target for t in tables)
        # The split pieces form one ascending, disjoint run.
        for prev, nxt in zip(tables, tables[1:]):
            assert prev.max_key < nxt.min_key

    def test_old_run_files_deleted(self):
        db = LSMTree(tiered_options())
        populate(db, 5000)
        live = {t.path for t in db.version.all_tables()}
        on_disk = {p for p in db.device.list_files() if p.startswith("sst/")}
        assert on_disk == live

    def test_reopen_recovers_tiered_tree(self):
        db = LSMTree(tiered_options())
        model = populate(db, 3000)
        reopened = LSMTree.reopen(db.device, tiered_options())
        for key, value in list(model.items())[::211]:
            assert reopened.get(key) == value


class TestTieredBackground:
    """Tiered merges on the background thread: the positional L0 splice
    keeps a merged run behind every flush that landed while it ran."""

    @staticmethod
    def churn(db):
        """put_many/delete_many bursts with overwrites; returns the dict
        oracle and the keys whose final state is a tombstone."""
        rng = make_rng(3, "tiered-churn")
        oracle, deleted = {}, set()
        pool = [rng.random_bytes(5) for _ in range(1500)]
        for burst in range(60):
            items = [(rng.choice(pool), b"g%03d-%s" % (burst, bytes(24)))
                     for _ in range(100)]
            db.put_many(items)
            for key, value in items:
                oracle[key] = value
                deleted.discard(key)
            victims = [rng.choice(pool) for _ in range(15)]
            db.delete_many(victims)
            for key in victims:
                oracle.pop(key, None)
                deleted.add(key)
            # Reads race whatever merge is in flight.
            probe = rng.choice(pool)
            assert db.get(probe) == oracle.get(probe)
        return oracle, deleted

    def test_background_churn_matches_sync_twin_and_oracle(self):
        contents = {}
        for background in (False, True):
            db = LSMTree(tiered_options(background_compaction=background))
            oracle, deleted = self.churn(db)
            db.compact_all()
            groups = db._compactor._group_runs(db.version.levels[0])
            assert len(groups) == 1
            contents[background] = db.range_query(b"", b"\xff" * 6)
            assert contents[background] == sorted(oracle.items())
            for key in sorted(deleted)[::7]:
                assert db.get(key) is None  # tombstones respected
            if background:
                assert db._background.cycles > 0
                assert db._bg_compactor.compactions_run > 1
            db.close()
            assert db.leaked_pins == 0
        assert contents[True] == contents[False]


def test_invalid_style_rejected():
    with pytest.raises(ConfigError):
        LSMOptions(compaction_style="cosmic")
