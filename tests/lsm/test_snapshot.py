"""SnapshotView semantics and version/region lifetime edge cases.

A snapshot must (a) observe exactly the store state at creation, forever,
regardless of later writes/flushes/compactions, (b) keep its own
determinism channels (clock, RNG, cache) so probing it never perturbs the
live store, and (c) pin its version's mapped regions so nothing unmaps
under it — while leaks (snapshot or plan left open across ``close``) are
*detected*, not silently tolerated.
"""

import pytest

from repro.common.errors import DBClosedError, LSMError, StorageError
from repro.lsm.db import LSMTree
from repro.lsm.options import LSMOptions
from repro.lsm.version import Version


def small_options(**overrides):
    base = dict(memtable_size_bytes=2048, sstable_target_bytes=4096,
                block_size_bytes=512, l0_compaction_trigger=3)
    base.update(overrides)
    return LSMOptions(**base)


def filled_db(num=400, **overrides):
    db = LSMTree(small_options(**overrides))
    items = {}
    for i in range(num):
        key = b"key-%04d" % i
        items[key] = b"value-%05d" % i
        db.put(key, items[key])
    return db, items


class TestSnapshotIsolation:
    def test_snapshot_survives_overwrites_and_compaction(self):
        db, items = filled_db()
        snap = db.snapshot()
        for i in range(400):
            db.put(b"key-%04d" % i, b"CHANGED-%d" % i)
        db.compact_all()
        assert db.get(b"key-0007") == b"CHANGED-7"
        for i in range(0, 400, 13):
            key = b"key-%04d" % i
            assert snap.get(key) == items[key]
        snap.close()
        db.close()
        assert db.leaked_pins == 0

    def test_snapshot_sees_memtable_and_tombstones(self):
        db, items = filled_db(num=40)  # stays partly in the memtable
        db.delete(b"key-0001")
        snap = db.snapshot()
        db.put(b"key-0001", b"resurrected")
        db.put(b"key-0002", b"changed")
        assert snap.get(b"key-0001") is None          # tombstone frozen
        assert snap.get(b"key-0002") == items[b"key-0002"]
        assert db.get(b"key-0001") == b"resurrected"
        snap.close()
        db.close()

    def test_snapshot_queries_do_not_advance_live_clock(self):
        db, items = filled_db()
        snap = db.snapshot()
        live_before = db.clock.now_us
        snap.get_many(list(items)[:100])
        assert db.clock.now_us == live_before
        assert snap.clock.now_us > live_before  # charged its own clock
        snap.close()
        db.close()

    def test_two_equal_stores_give_bit_identical_snapshot_timing(self):
        def probe():
            db, items = filled_db()
            snap = db.snapshot()
            timed = snap.get_many_timed(
                sorted(items)[:60] + [b"miss-%03d" % i for i in range(30)])
            snap.close()
            db.close()
            return [t for _, t in timed]
        assert probe() == probe()

    def test_filters_pass_matches_live_before_divergence(self):
        db, items = filled_db()
        snap = db.snapshot()
        keys = sorted(items)[:50] + [b"nope-%03d" % i for i in range(20)]
        assert snap.filters_pass_many(keys) == db.filters_pass_many(keys)
        snap.close()
        db.close()


class TestSnapshotLifetimes:
    def test_leaked_snapshot_detected_at_close(self):
        db, _ = filled_db()
        snap = db.snapshot()
        db.close()
        assert db.leaked_pins == 1
        snap.close()  # late close after force-release must not raise

    def test_leaked_plan_detected_at_close(self):
        from repro.filters import BloomFilterBuilder
        db, items = filled_db(filter_builder=BloomFilterBuilder())
        plan = db.probe_plan(sorted(items)[:20])
        assert plan is not None
        db.close()
        assert db.leaked_pins == 1

    def test_clean_shutdown_has_no_leaks(self):
        db, items = filled_db()
        snap = db.snapshot()
        snap.get_many(sorted(items)[:20])
        snap.close()
        db.get_many(sorted(items)[:20])
        db.close()
        assert db.leaked_pins == 0

    def test_snapshot_use_after_snapshot_close_raises(self):
        db, _ = filled_db()
        snap = db.snapshot()
        snap.close()
        with pytest.raises(DBClosedError):
            snap.get(b"key-0001")
        db.close()

    def test_snapshot_use_after_db_close_raises(self):
        db, _ = filled_db()
        snap = db.snapshot()
        db.close()
        with pytest.raises(DBClosedError):
            snap.get(b"key-0001")
        snap.close()

    def test_context_manager_closes(self):
        db, items = filled_db()
        with db.snapshot() as snap:
            assert snap.get(b"key-0003") == items[b"key-0003"]
        with pytest.raises(DBClosedError):
            snap.get(b"key-0003")
        db.close()
        assert db.leaked_pins == 0

    def test_snapshot_ids_are_sequential(self):
        db, _ = filled_db(num=30)
        a, b = db.snapshot(), db.snapshot()
        assert (a.id, b.id) == (0, 1)
        a.close(), b.close()
        db.close()

    def test_reset_with_pinned_snapshot_rejected(self):
        db, _ = filled_db()
        snap = db.snapshot()
        with pytest.raises(LSMError):
            db.versions.reset(Version(db.version.max_levels))
        snap.close()
        db.close()


class TestRegionLifetimes:
    """mmap regions unmap only after the last pin drops (no BufferError)."""

    def test_compaction_does_not_unmap_snapshotted_regions(self):
        db, items = filled_db()
        snap = db.snapshot()
        assert snap._regions, "expected mapped regions to pin"
        db.compact_all()  # retires every pre-snapshot table
        # The snapshot's regions stay readable: doomed at worst, not
        # closed, because the snapshot holds pins.
        assert all(not region.closed for region in snap._regions)
        for i in range(0, 400, 29):
            key = b"key-%04d" % i
            assert snap.get(key) == items[key]
        regions = list(snap._regions)
        snap.close()
        # Last pin dropped: doomed regions may now actually unmap.
        assert all(region.pins == 0 for region in regions)
        db.close()

    def test_doomed_region_unmaps_at_last_unpin_not_before(self):
        db, _ = filled_db()
        snap = db.snapshot()
        region = snap._regions[0]
        region.mark_doomed()  # what retiring the table does
        assert not region.closed and region.pins == 1
        assert len(region.view(0, 4)) == 4  # still borrowable
        snap.close()
        assert region.closed
        with pytest.raises(StorageError):
            region.view(0, 4)
        db.close()

    def test_db_close_with_open_snapshot_leaves_regions_readable(self):
        db, items = filled_db()
        snap = db.snapshot()
        db.close()
        # The pinned regions survived close; only the API gate stops us.
        assert all(not region.closed for region in snap._regions)
        snap.close()


class TestSurfaceParity:
    """``SnapshotView`` is the tree's read surface, method for method."""

    #: Public ``LSMTree`` methods a snapshot deliberately lacks: writes
    #: and lifecycle/recovery.
    LIVE_ONLY = {
        "put", "put_many", "delete", "delete_many", "flush", "compact_all",
        "bulk_load", "reopen", "snapshot",
    }

    def test_every_public_read_method_is_on_the_snapshot(self):
        import inspect

        from repro.lsm.snapshot import SnapshotView
        tree_methods = {
            name: member
            for name, member in inspect.getmembers(LSMTree,
                                                   inspect.isroutine)
            if not name.startswith("_")}
        assert self.LIVE_ONLY <= set(tree_methods)
        missing, mismatched = [], []
        for name, member in tree_methods.items():
            if name in self.LIVE_ONLY:
                continue
            twin = getattr(SnapshotView, name, None)
            if twin is None:
                missing.append(name)
            elif inspect.signature(twin) != inspect.signature(member):
                mismatched.append(name)
        assert not missing, f"SnapshotView lacks {missing}"
        assert not mismatched, f"signatures differ: {mismatched}"


class TestRangeOracleOverSnapshot:
    def test_range_descent_over_snapshot_matches_live_tree(self):
        # The drift this guards: SnapshotView had no range_filters_pass,
        # so the idealized range oracle raised AttributeError on it.
        from repro.core.range_attack import (
            IdealizedRangeOracle,
            RangeAttackConfig,
            RangeDescentAttack,
        )
        from repro.filters import SuRFBuilder
        from repro.system.service import KVService
        from repro.workloads import (
            ATTACKER_USER,
            DatasetConfig,
            build_environment,
        )
        env = build_environment(DatasetConfig(
            num_keys=1500, key_width=4, seed=5,
            filter_builder=SuRFBuilder(variant="real", suffix_bits=8)))
        config = RangeAttackConfig(key_width=4, max_keys=12, seed=6)

        def descend(service):
            oracle = IdealizedRangeOracle(service, ATTACKER_USER)
            result = RangeDescentAttack(oracle, config).run()
            return result.keys, oracle.range_queries, oracle.point_queries

        with env.db.snapshot() as snap:
            assert snap.range_filters_pass(b"\x00" * 4, b"\xff" * 4)
            assert not snap.range_filters_pass(b"\xff", b"\x00")
            frozen = descend(KVService(snap))
        live = descend(env.service)
        assert frozen == live
        assert frozen[0] and set(frozen[0]) <= env.key_set
        env.db.close()
        assert env.db.leaked_pins == 0


class TestProbePlanPinRelease:
    def test_raising_filter_does_not_leak_the_prepass_pin(self):
        from repro.filters import BloomFilterBuilder
        db, items = filled_db(filter_builder=BloomFilterBuilder())
        keys = sorted(items)[:20]
        broken = next(db.version.candidates_for_key(keys[0])).filter

        def explode(_keys):
            raise RuntimeError("filter probe failed")

        broken.probe_many = explode
        for batch_read in (db.get_many, db.get_many_timed,
                           db.filters_pass_many, db.probe_plan):
            with pytest.raises(RuntimeError):
                batch_read(keys)
        assert db.versions.pinned_count() == 0
        db.close()
        assert db.leaked_pins == 0


class TestGetterTakesNoPlan:
    """A getter reads what its owner reads: a live plan once made a
    snapshot's getter answer with later writes, and a getter outlive its
    plan's release into retired tables."""

    KEYS = [b"k%04d" % i for i in range(200)]

    def _bloom_db(self):
        from repro.filters import BloomFilterBuilder
        return LSMTree(LSMOptions(filter_builder=BloomFilterBuilder()))

    def test_snapshot_getter_sees_only_the_snapshot(self):
        db = self._bloom_db()
        for key in self.KEYS:
            db.put(key, b"old")
        db.flush()
        snap = db.snapshot()
        db.put(b"k0007", b"new")
        db.put(b"zz", b"late")
        db.flush()
        plan = db.probe_plan([b"k0007", b"zz"])
        try:
            with pytest.raises(TypeError):
                snap.getter(plan)
        finally:
            plan.release()
        get_one = snap.getter()
        assert [get_one(b"k0007"), get_one(b"zz")] == [b"old", None]
        snap.close()
        db.close()
        assert db.leaked_pins == 0

    def test_getter_survives_compaction(self):
        db = self._bloom_db()
        for round_ in range(2):
            for key in self.KEYS:
                db.put(key, b"v%d" % round_)
            db.flush()
        get_one = db.getter()
        db.compact_all()
        assert get_one(b"k0007") == b"v1"
        db.close()
        assert db.leaked_pins == 0

    def test_live_getter_refuses_after_db_close(self):
        db = self._bloom_db()
        db.put(b"k0001", b"v")
        get_one = db.getter()
        db.close()
        for key in (b"k0001", b"k0001", b"absent"):
            with pytest.raises(DBClosedError):
                get_one(key)
        assert db.leaked_pins == 0

    @pytest.mark.parametrize("compact", [False, True],
                             ids=["frozen_tables", "retired_tables"])
    def test_snapshot_getter_refuses_after_snapshot_close(self, compact):
        # It once served the frozen value until a compaction retired the
        # snapshot's tables, then raised FileNotFoundInStoreError.
        db = self._bloom_db()
        for key in self.KEYS:
            db.put(key, b"old")
        db.flush()
        snap = db.snapshot()
        get_one = snap.getter()
        assert get_one(b"k0007") == b"old"
        snap.close()
        if compact:
            for key in self.KEYS:
                db.put(key, b"new")
            db.compact_all()
        for key in (b"k0007", b"k0007", b"absent"):
            with pytest.raises(DBClosedError):
                get_one(key)
        db.close()
        assert db.leaked_pins == 0


class TestSnapshotCursor:
    """A snapshot's ``iterator`` reads the snapshot: its frozen state, its
    clock, its pin — and stops when the snapshot closes."""

    def test_cursor_sees_only_the_snapshot(self):
        db, items = filled_db(num=60)  # part flushed, part in the memtable
        snap = db.snapshot()
        db.put(b"key-0003", b"CHANGED")
        db.delete(b"key-0004")
        db.put(b"key-00035", b"inserted")
        db.flush()
        db.compact_all()
        pins = db.versions.pinned_count()
        live_clock = db.clock.now_us
        snap_clock = snap.clock.now_us
        cursor = snap.iterator(b"key-0002", b"key-0005")
        assert list(cursor) == [(key, items[key]) for key in
                                (b"key-0002", b"key-0003", b"key-0004",
                                 b"key-0005")]
        assert list(snap.iterator()) == sorted(items.items())
        assert db.clock.now_us == live_clock
        assert snap.clock.now_us > snap_clock
        assert db.versions.pinned_count() == pins
        cursor.close()
        assert db.versions.pinned_count() == pins
        snap.close()
        assert db.versions.pinned_count() == pins - 1
        db.close()
        assert db.leaked_pins == 0

    def test_cursor_matches_snapshot_range_query(self):
        db, items = filled_db()
        with db.snapshot() as snap:
            for i in range(400):
                db.put(b"key-%04d" % i, b"CHANGED")
            assert (list(snap.iterator(b"key-0100", b"key-0250"))
                    == snap.range_query(b"key-0100", b"key-0250"))
        db.close()
        assert db.leaked_pins == 0

    @pytest.mark.parametrize("reader", ["live", "snapshot"])
    def test_a_closed_cursor_is_exhausted(self, reader):
        db, items = filled_db()
        snap = db.snapshot()
        cursor = (db if reader == "live" else snap).iterator()
        cursor.next()
        cursor.close()
        assert not cursor.valid
        with pytest.raises(LSMError):
            cursor.next()
        snap.close()
        db.close()
        assert db.leaked_pins == 0

    @pytest.mark.parametrize("owner", ["snapshot", "db"])
    def test_cursor_refuses_after_its_owner_closes(self, owner):
        db, _ = filled_db()
        snap = db.snapshot()
        cursor = snap.iterator()
        cursor.next()
        (snap if owner == "snapshot" else db).close()
        with pytest.raises(DBClosedError):
            cursor.next()
        cursor.close()
        snap.close()
        db.close()
        assert db.leaked_pins == (1 if owner == "db" else 0)


class TestProbePlanOnClosedReaders:
    """``probe_plan`` is a read like any other: closed means DBClosedError,
    not a plan pinning a closed version set."""

    def test_closed_tree_refuses_a_plan(self):
        db, items = filled_db()
        db.close()
        with pytest.raises(DBClosedError):
            db.probe_plan(sorted(items)[:20])
        assert db.versions.force_release() == 0

    def test_closed_snapshot_refuses_a_plan(self):
        db, items = filled_db()
        snap = db.snapshot()
        snap.close()
        with pytest.raises(DBClosedError):
            snap.probe_plan(sorted(items)[:20])
        db.close()
        assert db.leaked_pins == 0
