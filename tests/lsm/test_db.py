"""LSM-tree facade tests: reads, writes, ranges, recovery, timing."""

import pytest

from repro.common.errors import ConfigError, DBClosedError
from repro.common.rng import make_rng
from repro.filters.surf import SuRFBuilder
from repro.lsm.db import LSMTree
from repro.lsm.options import LSMOptions
from repro.lsm.table_build import split_records


def surf_options(**overrides):
    defaults = dict(
        memtable_size_bytes=16 * 1024,
        sstable_target_bytes=16 * 1024,
        page_cache_bytes=128 * 1024,
        filter_builder=SuRFBuilder(variant="real", suffix_bits=8),
    )
    defaults.update(overrides)
    return LSMOptions(**defaults)


@pytest.fixture()
def db():
    return LSMTree(surf_options())


def snapshot_read(read):
    """``read`` against a snapshot taken (and closed) for it."""
    def run(db):
        with db.snapshot() as snap:
            return read(snap)
    return run


class TestBasicOps:
    def test_put_get(self, db):
        db.put(b"key01", b"value")
        assert db.get(b"key01") == b"value"

    def test_get_missing(self, db):
        assert db.get(b"nope!") is None

    def test_delete(self, db):
        db.put(b"key01", b"value")
        db.delete(b"key01")
        assert db.get(b"key01") is None

    def test_delete_then_flush_shadows_old_levels(self, db):
        db.put(b"key01", b"value")
        db.flush()
        db.delete(b"key01")
        db.flush()
        assert db.get(b"key01") is None

    def test_put_none_is_rejected_before_anything_is_written(self, db):
        # Tombstones go through delete(); a None value must not reach
        # the WAL or the counters.
        with pytest.raises(ConfigError):
            db.put(b"key01", None)
        assert db.stats.puts == 0
        assert not db.device.exists("wal/current.wal")

    def test_get_after_flush(self, db):
        db.put(b"key01", b"value")
        db.flush()
        assert db.get(b"key01") == b"value"

    def test_overwrite_across_flush(self, db):
        db.put(b"key01", b"v1")
        db.flush()
        db.put(b"key01", b"v2")
        assert db.get(b"key01") == b"v2"


class TestRangeQueries:
    def test_inclusive_bounds(self, db):
        for b in (1, 2, 3, 4):
            db.put(bytes([b]) * 3, bytes([b]))
        got = db.range_query(bytes([2]) * 3, bytes([3]) * 3)
        assert [k for k, _ in got] == [bytes([2]) * 3, bytes([3]) * 3]

    def test_merges_memtable_and_tables(self, db):
        db.put(b"aaa", b"1")
        db.flush()
        db.put(b"bbb", b"2")  # still in memtable
        got = db.range_query(b"a", b"z")
        assert [k for k, _ in got] == [b"aaa", b"bbb"]

    def test_tombstones_hide_entries(self, db):
        db.put(b"aaa", b"1")
        db.flush()
        db.delete(b"aaa")
        assert db.range_query(b"a", b"z") == []

    def test_limit(self, db):
        for b in range(10):
            db.put(bytes([b + 1]) * 3, b"v")
        assert len(db.range_query(b"\x00", b"\xff" * 3, limit=4)) == 4

    def test_inverted_range_empty(self, db):
        assert db.range_query(b"z", b"a") == []

    @pytest.mark.parametrize("reader", ["live", "snapshot"])
    def test_limit_zero_reads_nothing(self, db, reader):
        for b in range(5):
            db.put(b"k%d" % b, b"v")
        db.flush()
        db.put(b"k9", b"v")
        view = db if reader == "live" else db.snapshot()
        before = (view.clock.now_us, dict(vars(view.stats)))
        assert view.range_query(b"a", b"z", limit=0) == []
        assert view.scan(b"k", limit=0) == []
        assert (view.clock.now_us, dict(vars(view.stats))) == before
        for read in (lambda: view.range_query(b"a", b"z", limit=-1),
                     lambda: view.scan(b"k", limit=-1)):
            with pytest.raises(ConfigError):
                read()
        assert view.range_query(b"a", b"z", limit=1) == [(b"k0", b"v")]
        if view is not db:
            view.close()
        db.close()
        assert db.leaked_pins == 0

    def test_model_comparison(self, db):
        rng = make_rng(17, "range")
        model = {}
        for _ in range(2000):
            key = rng.random_bytes(4)
            db.put(key, key[::-1])
            model[key] = key[::-1]
        skeys = sorted(model)
        for _ in range(30):
            lo, hi = sorted((rng.random_bytes(4), rng.random_bytes(4)))
            want = [(k, model[k]) for k in skeys if lo <= k <= hi]
            assert db.range_query(lo, hi) == want


    @pytest.mark.parametrize("read", [
        lambda db: db.range_query(b"a", b"z"),
        lambda db: db.scan(b"k"),
        lambda db: list(db.iterator(b"a")),
        snapshot_read(lambda snap: [(b"k", snap.get(b"k"))]),
        snapshot_read(lambda snap: snap.range_query(b"a", b"z")),
    ], ids=["range_query", "scan", "iterator", "snapshot_get",
            "snapshot_range_query"])
    def test_flush_between_pin_and_memtable_read(self, db, read):
        # A flush landing right after the read pins its version moves the
        # memtable's records into a version the read does not see: the
        # read (or the snapshot) must take the memtable it searches
        # before the pin.
        db.put(b"k", b"v")
        pin = db.versions.pin

        def pin_then_flush():
            version = pin()
            db.versions.pin = pin
            db.flush()
            return version

        db.versions.pin = pin_then_flush
        assert read(db) == [(b"k", b"v")]
        db.close()
        assert db.leaked_pins == 0


class TestBulkLoad:
    def test_bulk_load_round_trip(self):
        db = LSMTree(surf_options())
        items = [(i.to_bytes(4, "big"), b"v%d" % i) for i in range(5000)]
        db.bulk_load(items)
        assert db.get((42).to_bytes(4, "big")) == b"v42"
        assert db.get((99999).to_bytes(4, "big")) is None
        # Loaded as non-overlapping tables in one deep level.
        populated = [lvl for lvl, tables in enumerate(db.version.levels)
                     if tables]
        assert populated and populated[0] >= 1

    def test_bulk_load_requires_sorted_unique(self):
        db = LSMTree(surf_options())
        with pytest.raises(ConfigError):
            db.bulk_load([(b"b", b"v"), (b"a", b"v")])

    @pytest.mark.parametrize("where", ["inside_a_table", "at_a_boundary"])
    def test_bulk_load_rejects_late_disorder_and_leaves_tree_empty(
            self, where):
        # The input is pulled as a stream, so disorder can surface after
        # tables are written: those files go, nothing is installed.
        options = surf_options()
        items = [(i.to_bytes(4, "big"), b"v%d" % i) for i in range(5000)]
        if where == "inside_a_table":
            bad = items + [((17).to_bytes(4, "big"), b"late")]
        else:
            # Two whole tables, then the first again: the repeat starts a
            # table of its own, so only the boundary check can catch it.
            chunks = split_records(items, options.block_size_bytes,
                                   options.sstable_target_bytes)
            first, second = next(chunks), next(chunks)
            bad = first + second + first
        db = LSMTree(options)
        written = []
        create_file = db.device.create_file

        def counting_create_file(path, data):
            written.append(path)
            create_file(path, data)

        db.device.create_file = counting_create_file
        with pytest.raises(ConfigError):
            db.bulk_load(iter(bad))
        assert len([p for p in written if p.endswith(".sst")]) >= 2
        assert not [p for p in db.device.list_files() if p.endswith(".sst")]
        assert db.version.total_tables() == 0
        db.bulk_load(items)
        assert db.get((17).to_bytes(4, "big")) == b"v17"
        assert db.get((4999).to_bytes(4, "big")) == b"v4999"
        db.close()
        reopened = LSMTree.reopen(db.device, options)
        assert reopened.get((42).to_bytes(4, "big")) == b"v42"

    def test_bulk_load_holds_one_table_of_input(self):
        # At each table's write, the stream has been pulled no further
        # than the records written so far plus this table's (plus one).
        db = LSMTree(surf_options())
        pulled = [0]

        def stream():
            for i in range(20_000):
                pulled[0] += 1
                yield i.to_bytes(4, "big"), b"v%d" % i

        at_write = []
        create_file = db.device.create_file

        def watching_create_file(path, data):
            if path.endswith(".sst"):
                at_write.append((path, pulled[0]))
            create_file(path, data)

        db.device.create_file = watching_create_file
        db.bulk_load(stream())
        tables = sorted(db.version.all_tables(), key=lambda t: t.path)
        assert [path for path, _ in at_write] == [t.path for t in tables]
        assert len(tables) > 10
        written = 0
        for (_, seen), table in zip(at_write, tables):
            assert seen <= written + table.num_entries + 1
            written += table.num_entries
        assert written == 20_000

    def test_bulk_load_requires_empty_tree(self):
        db = LSMTree(surf_options())
        db.put(b"key", b"v")
        with pytest.raises(ConfigError):
            db.bulk_load([(b"a", b"v")])


class TestFiltersOnPath:
    def test_filter_negative_skips_io(self, db):
        rng = make_rng(19, "neg")
        for _ in range(3000):
            db.put(rng.random_bytes(5), b"v" * 30)
        db.compact_all()
        reads_before = db.device.stats.reads
        misses = 0
        for _ in range(500):
            key = rng.random_bytes(5)
            if not db.filters_pass(key):
                db.get(key)
                misses += 1
        assert misses > 400
        assert db.device.stats.reads == reads_before

    def test_filters_pass_matches_get_io(self, db):
        rng = make_rng(20, "oracle")
        for _ in range(2000):
            db.put(rng.random_bytes(5), b"v" * 30)
        db.compact_all()
        for _ in range(300):
            key = rng.random_bytes(5)
            expected_io = db.filters_pass(key)
            before = db.device.stats.reads + db.cache.stats.hits
            db.get(key)
            did_io = (db.device.stats.reads + db.cache.stats.hits) > before
            assert did_io == expected_io

    def test_stats_counters(self, db):
        db.put(b"key01", b"v")
        db.flush()
        db.get(b"key01")
        db.get(b"nope!")
        assert db.stats.gets == 2
        assert db.stats.filter_checks >= 1


class TestTiming:
    def test_get_timed_returns_elapsed(self, db):
        db.put(b"key01", b"v")
        value, elapsed = db.get_timed(b"key01")
        assert value == b"v"
        assert elapsed > 0

    def test_negative_faster_than_uncached_positive(self):
        db = LSMTree(surf_options())
        rng = make_rng(23, "timing")
        keys = sorted({rng.random_bytes(5) for _ in range(3000)})
        db.bulk_load([(k, b"v" * 30) for k in keys])
        negatives, positives = [], []
        for _ in range(400):
            key = rng.random_bytes(5)
            passes = db.filters_pass(key)
            _, elapsed = db.get_timed(key)
            (positives if passes else negatives).append(elapsed)
            db.cache.clear()  # keep every positive an I/O
        assert negatives
        if positives:
            assert (sum(positives) / len(positives)
                    > 2 * sum(negatives) / len(negatives))


class TestRecovery:
    def test_reopen_recovers_tables_and_wal(self):
        db = LSMTree(surf_options())
        rng = make_rng(29, "recovery")
        model = {}
        for _ in range(3000):
            key = rng.random_bytes(5)
            db.put(key, key[::-1])
            model[key] = key[::-1]
        # No flush of the tail: it must come back via the WAL.
        reopened = LSMTree.reopen(db.device, surf_options())
        for key, value in list(model.items())[::117]:
            assert reopened.get(key) == value

    def test_reopen_recovers_deletes(self):
        db = LSMTree(surf_options())
        db.put(b"key01", b"v")
        db.flush()
        db.delete(b"key01")
        reopened = LSMTree.reopen(db.device, surf_options())
        assert reopened.get(b"key01") is None


class TestLifecycle:
    def test_closed_db_rejects_ops(self, db):
        db.put(b"key01", b"v")
        db.close()
        with pytest.raises(DBClosedError):
            db.get(b"key01")
        with pytest.raises(DBClosedError):
            db.put(b"key02", b"v")

    def test_close_idempotent(self, db):
        db.close()
        db.close()

    def test_describe(self, db):
        db.put(b"key01", b"v")
        info = db.describe()
        assert info["memtable_entries"] == 1
        assert "surf" in info["filter"]


class TestIteratorApi:
    def test_iterates_merged_view_in_order(self, db):
        db.put(b"ccc", b"3")
        db.flush()
        db.put(b"aaa", b"1")  # memtable
        db.put(b"bbb", b"2")
        it = db.iterator()
        assert it.valid and it.key == b"aaa" and it.value == b"1"
        it.next()
        assert it.key == b"bbb"
        it.next()
        assert it.key == b"ccc"
        it.next()
        assert not it.valid

    def test_bounds_and_seek(self, db):
        for b in range(1, 8):
            db.put(bytes([b]) * 3, bytes([b]))
        it = db.iterator(low=bytes([3]) * 3, high=bytes([5]) * 3)
        assert [k for k, _ in it] == [bytes([3]) * 3, bytes([4]) * 3,
                                      bytes([5]) * 3]

    def test_tombstones_skipped(self, db):
        db.put(b"aaa", b"1")
        db.put(b"bbb", b"2")
        db.flush()
        db.delete(b"aaa")
        it = db.iterator()
        assert [k for k, _ in it] == [b"bbb"]

    def test_newest_value_wins(self, db):
        db.put(b"kkk", b"old")
        db.flush()
        db.put(b"kkk", b"new")
        it = db.iterator()
        assert it.value == b"new"

    def test_exhausted_cursor_raises(self, db):
        from repro.common.errors import LSMError
        it = db.iterator()
        assert not it.valid
        with pytest.raises(LSMError):
            it.key
        with pytest.raises(LSMError):
            it.next()

    def test_cursor_left_open_across_close(self, db):
        for b in range(1, 8):
            db.put(bytes([b]) * 3, b"v")
        db.flush()
        it = db.iterator()
        it.next()
        db.close()
        assert db.leaked_pins == 1
        # The step after the tree closed refuses to read its tables, and
        # the pin close() reclaimed is not returned a second time.
        with pytest.raises(DBClosedError):
            it.next()
        with pytest.raises(DBClosedError):
            list(it)
        it.close()
        it.close()
        assert db.versions.pinned_count() == 0

    def test_matches_range_query(self, db):
        from repro.common.rng import make_rng
        rng = make_rng(91, "iter")
        for _ in range(2000):
            k = rng.random_bytes(4)
            db.put(k, k[::-1])
        lo, hi = sorted((rng.random_bytes(4), rng.random_bytes(4)))
        assert list(db.iterator(lo, hi)) == db.range_query(lo, hi)


class TestLongKeys:
    """Keys have no length cap in process (the wire allows 65 535 bytes):
    cursors and prefix scans must not stop at any fixed key length."""

    LONG = b"a" + b"\xff" * 64 + b"z"

    @pytest.mark.parametrize("options", [LSMOptions, surf_options],
                             ids=["plain", "surf"])
    def test_open_cursor_reaches_tables_of_long_keys(self, options):
        db = LSMTree(options())
        db.put(b"a", b"1")
        db.flush()
        db.put(b"\xff" * 65, b"2")
        db.flush()
        assert [k for k, _ in db.iterator()] == [b"a", b"\xff" * 65]
        assert [k for k, _ in db.iterator(b"b")] == [b"\xff" * 65]
        db.close()
        assert db.leaked_pins == 0

    @pytest.mark.parametrize("flushed", [False, True],
                             ids=["memtable", "tables"])
    def test_scan_returns_every_extension(self, db, flushed):
        db.put(b"a", b"1")
        db.put(self.LONG, b"2")
        db.put(b"b", b"3")
        if flushed:
            db.flush()
        assert db.scan(b"a") == [(b"a", b"1"), (self.LONG, b"2")]
        assert db.scan(b"a" + b"\xff" * 64) == [(self.LONG, b"2")]

    def test_snapshot_scan_returns_every_extension(self, db):
        db.put(b"a", b"1")
        db.flush()
        db.put(self.LONG, b"2")
        with db.snapshot() as snap:
            db.put(b"a" + b"\xff" * 70, b"later")
            assert snap.scan(b"a") == [(b"a", b"1"), (self.LONG, b"2")]

    def test_scan_excludes_the_prefix_successor(self, db):
        for key in (b"ab", b"ab\xff\xff", b"ac", b"ac\x00"):
            db.put(key, key)
        assert [k for k, _ in db.scan(b"ab")] == [b"ab", b"ab\xff\xff"]
        assert [k for k, _ in db.scan(b"ab\xff")] == [b"ab\xff\xff"]
        assert [k for k, _ in db.scan(b"ab", limit=1)] == [b"ab"]
        assert [k for k, _ in db.scan(b"ab", limit=3)] == [b"ab",
                                                           b"ab\xff\xff"]

    def test_scan_of_prefixes_without_a_successor(self, db):
        keys = [b"\x01", b"\xfe" * 3, b"\xff", b"\xff" * 80 + b"\x01"]
        for key in keys:
            db.put(key, b"v")
        db.flush()
        assert [k for k, _ in db.scan(b"")] == keys
        assert [k for k, _ in db.scan(b"\xff")] == keys[2:]
        assert [k for k, _ in db.scan(b"\xff\xff")] == keys[3:]
        assert LSMTree(surf_options()).scan(b"") == []

    def test_scan_matches_model(self, db):
        rng = make_rng(23, "scan")
        model = {}
        for _ in range(1500):
            key = rng.random_bytes(1 + rng.randrange(3)) + (
                b"\xff" * rng.choice([0, 0, 1, 70]))
            db.put(key, key[::-1])
            model[key] = key[::-1]
        for prefix in (b"\x10", b"\xff", b"\x80\xff", b"\x00",
                       rng.random_bytes(1), rng.random_bytes(2)):
            want = [(k, model[k]) for k in sorted(model)
                    if k.startswith(prefix)]
            assert db.scan(prefix) == want


class TestInjectedCache:
    def test_empty_injected_cache_is_used(self):
        # PageCache defines __len__, so a fresh (empty) cache is falsy; the
        # constructor must not let a truthiness fallback discard it.
        from repro.storage.clock import SimClock
        from repro.storage.device import DeviceModel, StorageDevice
        from repro.storage.page_cache import PageCache

        clock = SimClock()
        device = StorageDevice(clock, DeviceModel())
        cache = PageCache(device, 256 * 1024)
        db = LSMTree(surf_options(), clock=clock, device=device, cache=cache)
        assert db.cache is cache
        db.put(b"aaaa", b"1")
        db.flush()
        db.get(b"aaaa")
        assert cache.stats.lookups > 0
