"""Table-writer equivalence: the store against the streaming oracle.

The table writer's contract (DESIGN.md section 9): a pure artifact build
plus an effectful install in canonical key order.  The streaming builders
in ``tests/reference`` are the oracle it is held to (worker count ``0``
below; ``1`` is the store as shipped): ``bulk_load`` and ``flush`` must
match them byte-for-byte — file bytes, file numbering, manifest contents,
device stats, the simulated clock — while forced compaction only
promises the same *logical* state (the store splits outputs at key-range
boundaries the streaming merge does not).
"""

import dataclasses

import pytest
from reference.streaming_build import (
    SSTableBuilder,
    bulk_load_streaming,
    use_streaming_merges,
)

from repro.common.rng import make_rng
from repro.filters import SuRFBuilder
from repro.filters.bloom import BloomFilterBuilder
from repro.lsm.db import LSMTree
from repro.lsm.options import LSMOptions
from repro.storage.clock import SimClock
from repro.storage.device import StorageDevice

WORKER_COUNTS = (0, 1)


def make_options(**overrides):
    defaults = dict(
        memtable_size_bytes=4 * 1024,
        sstable_target_bytes=4 * 1024,
        block_size_bytes=512,
        l0_compaction_trigger=3,
        base_level_size_bytes=8 * 1024,
        filter_builder=BloomFilterBuilder(10),
    )
    defaults.update(overrides)
    return LSMOptions(**defaults)


def fresh_db(workers, **overrides):
    """A store; ``workers=0`` = the streaming oracle (a store whose bulk
    load and merges are rerouted), ``1`` = the store as shipped."""
    clock = SimClock()
    device = StorageDevice(clock)
    db = LSMTree(options=make_options(**overrides),
                 clock=clock, device=device)
    if workers == 0:
        db.bulk_load = lambda items: bulk_load_streaming(db, items)
        use_streaming_merges(db)
    return db, device, clock


def sorted_items(n=3000, width=6):
    rng = make_rng(17, "bulk")
    keys = sorted({rng.random_bytes(width) for _ in range(n)})
    return [(key, b"value-" + key.hex().encode()) for key in keys]


def device_state(device, clock):
    return dict(device._files), clock.now_us, dataclasses.astuple(device.stats)


def assert_same_state(state, baseline, label):
    files, now_us, stats = state
    base_files, base_now_us, base_stats = baseline
    assert sorted(files) == sorted(base_files), label
    for path in base_files:
        assert files[path] == base_files[path], (label, path)
    assert now_us == base_now_us, label
    assert stats == base_stats, label


class TestBulkLoadEquivalence:
    def test_bit_identical_across_worker_counts(self):
        items = sorted_items()
        baseline = None
        for workers in WORKER_COUNTS:
            db, device, clock = fresh_db(workers)
            db.bulk_load(items)
            state = device_state(device, clock)
            if baseline is None:
                # The dataset must genuinely shard (several tables).
                tables = [p for p in state[0] if p.startswith("sst/")]
                assert len(tables) > 3
                baseline = state
            else:
                assert_same_state(state, baseline,
                                  f"bulk_load workers={workers}")

    def test_loaded_tree_reads_back(self):
        items = sorted_items(800)
        db, _, _ = fresh_db(1)
        db.bulk_load(items)
        for key, value in items[::97]:
            assert db.get(key) == value
        assert db.get(b"\x00" * 6) is None


class TestFlushEquivalence:
    @pytest.mark.parametrize("filter_builder",
                             [None, BloomFilterBuilder(10),
                              SuRFBuilder(variant="real", suffix_bits=8,
                                          backend="louds")],
                             ids=["filterless", "bloom", "surf-louds"])
    def test_flush_file_matches_streaming_builder(self, filter_builder):
        # flush builds through the artifact writer; streaming the same
        # memtable through the reference builder must give the same file.
        db, device, _ = fresh_db(1, filter_builder=filter_builder,
                                 memtable_size_bytes=1 << 20)
        for index in range(600):
            db.put(b"fk%05d" % (index * 7 % 601), b"fv-%05d" % index)
        for index in range(0, 600, 9):
            db.delete(b"fk%05d" % index)
        memtable = list(db._memtable.items())
        table = db.flush()

        oracle_device = StorageDevice(SimClock())
        builder = SSTableBuilder(oracle_device, table.path,
                                 db.options.block_size_bytes, filter_builder)
        for key, entry in memtable:
            builder.add(key, entry)
        oracle = builder.finish()
        assert device._files[table.path] == oracle_device._files[table.path]
        assert ((table.min_key, table.max_key, table.num_entries,
                 table.size_bytes)
                == (oracle.min_key, oracle.max_key, oracle.num_entries,
                    oracle.size_bytes))


class TestCompactionEquivalence:
    @staticmethod
    def populate_and_compact(workers):
        # Interleaved puts/deletes across a small memtable: many flushes,
        # L0 compactions mid-history, then a forced full compaction.
        db, device, clock = fresh_db(workers)
        expected = {}
        for index in range(2500):
            key = b"ck%05d" % (index * 37 % 701)
            value = b"cv-%05d" % index
            db.put(key, value)
            expected[key] = value
            if index % 11 == 0:
                victim = b"ck%05d" % (index * 17 % 701)
                db.delete(victim)
                expected.pop(victim, None)
        db.compact_all()
        return db, device, clock, expected

    def test_engine_matches_streaming_logical_state(self):
        # The streaming path may cut tables at different boundaries, so
        # only the recovered key/value state must agree.
        db_engine, _, _, expected = self.populate_and_compact(1)
        assert db_engine.stats.flushes > 3  # history crossed the merge
        db_stream, _, _, _ = self.populate_and_compact(0)
        for key in sorted(expected):
            assert db_engine.get(key) == expected[key]
            assert db_stream.get(key) == expected[key]
        missing = b"ck99999"
        assert db_engine.get(missing) is None
        assert db_stream.get(missing) is None


class TestGroupCommitEquivalence:
    @staticmethod
    def big_memtable_db():
        # Keep everything in the memtable + WAL: the comparison isolates
        # the logging path from flush/compaction noise.
        return fresh_db(1, memtable_size_bytes=32 * 1024 * 1024)

    def test_put_many_matches_put_loop(self):
        items = [(b"gk%05d" % index, b"gv-%05d" % index)
                 for index in range(400)]
        db_loop, dev_loop, clock_loop = self.big_memtable_db()
        for key, value in items:
            db_loop.put(key, value)
        db_batch, dev_batch, clock_batch = self.big_memtable_db()
        for start in range(0, len(items), 25):
            db_batch.put_many(items[start:start + 25])

        # Same WAL bytes (log_batch concatenates the per-record frames),
        # same stored state ...
        wal = "wal/current.wal"
        assert dev_batch._files[wal] == dev_loop._files[wal]
        for key, value in items[::37]:
            assert db_batch.get(key) == value
        assert db_batch.stats.puts == db_loop.stats.puts
        # ... but one device append per batch: fewer writes, less
        # simulated time.  That gap is the modeled group-commit win.
        assert dev_batch.stats.writes < dev_loop.stats.writes
        assert clock_batch.now_us < clock_loop.now_us

    def test_delete_many_matches_delete_loop(self):
        items = [(b"dk%05d" % index, b"dv-%05d" % index)
                 for index in range(120)]
        victims = [key for key, _ in items[::2]]
        db_loop, dev_loop, _ = self.big_memtable_db()
        db_batch, dev_batch, _ = self.big_memtable_db()
        db_loop.put_many(items)
        db_batch.put_many(items)
        for key in victims:
            db_loop.delete(key)
        db_batch.delete_many(victims)
        wal = "wal/current.wal"
        assert dev_batch._files[wal] == dev_loop._files[wal]
        assert dev_batch.stats.writes < dev_loop.stats.writes
        for key, value in items:
            expected = None if key in set(victims) else value
            assert db_batch.get(key) == expected

    def test_batched_wal_replays_on_reopen(self):
        items = [(b"rk%05d" % index, b"rv-%05d" % index)
                 for index in range(60)]
        db, device, _ = self.big_memtable_db()
        db.put_many(items)
        db.delete_many([key for key, _ in items[::3]])
        db.close()
        recovered = LSMTree.reopen(
            device, options=make_options(
                memtable_size_bytes=32 * 1024 * 1024))
        dropped = {key for key, _ in items[::3]}
        for key, value in items:
            expected = None if key in dropped else value
            assert recovered.get(key) == expected
