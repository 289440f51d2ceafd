"""Sorted-view equivalence suite (DESIGN.md section 13).

The contract: served through the sorted view, every range surface
(``range_query``/``scan``/``iterator``) returns identical results, drives
identical per-filter stats, and reads a **bit-identical** simulated clock
compared to the classic per-query heap merge — across fresh bulk-loaded
trees, write/delete/flush churn (the incremental ``evolve`` path), lazy
full rebuilds, snapshots, and the process-pool build transport.

The classic twin is not a flag: it is the same store on a device whose
files cannot be mapped (``reference.unmappable``), where the read path
falls back to the heap merge by itself.
"""

from __future__ import annotations

import dataclasses
import random


from reference.unmappable import UnmappableDevice

from repro.filters import SuRFBuilder
from repro.lsm.db import LSMTree
from repro.lsm.options import LSMOptions
from repro.lsm.sorted_view import UNBUILDABLE, SortedView, ensure_view
from repro.storage.clock import SimClock
from repro.storage.device import StorageDevice


def _options(**overrides) -> LSMOptions:
    defaults = dict(filter_builder=SuRFBuilder(variant="real", suffix_bits=8),
                    sstable_target_bytes=8 * 1024,
                    memtable_size_bytes=8 * 1024, seed=7)
    defaults.update(overrides)
    return LSMOptions(**defaults)


def _tree(mappable: bool = True, **overrides) -> LSMTree:
    """A store on a mappable (sorted view) or unmappable (classic) device."""
    clock = SimClock()
    device_cls = StorageDevice if mappable else UnmappableDevice
    return LSMTree(_options(**overrides), clock=clock,
                   device=device_cls(clock))


def _keys(n, seed=11, width=5):
    rng = random.Random(seed)
    return [bytes.fromhex("%0*x" % (2 * width, rng.getrandbits(8 * width)))
            for _ in range(n)]


def _filter_stats(db):
    out = []
    for table in db.versions.current.all_tables():
        if table.filter is not None:
            stats = table.filter.stats
            out.append((table.path, stats.point_queries, stats.positives,
                        stats.range_queries, stats.range_positives))
    return out


def _db_stats(db):
    counters = dataclasses.asdict(db.stats)
    # The only permitted divergence: wall-clock routing counters.
    counters.pop("sorted_view_seeks")
    counters.pop("view_rebuild_segments")
    return counters


def _run_script(mappable: bool, script, **options):
    db = _tree(mappable, **options)
    try:
        trace = script(db)
        return (trace, db.clock.now_us, _db_stats(db), _filter_stats(db),
                db.stats.sorted_view_seeks)
    finally:
        db.close()
        assert db.leaked_pins == 0


def _assert_equivalent(script, **options):
    with_view = _run_script(True, script, **options)
    without = _run_script(False, script, **options)
    assert with_view[0] == without[0], "results diverged"
    assert with_view[1] == without[1], "simulated clocks diverged"
    assert with_view[2] == without[2], "DBStats diverged"
    assert with_view[3] == without[3], "per-filter stats diverged"
    # The unmappable twin really served every read from the heap merge.
    assert without[4] == 0


def _load(db, keys, start=0):
    for i, key in enumerate(keys):
        db.put(key, b"v%06d" % (start + i))


# ------------------------------------------------------------- equivalence


def test_bounded_range_queries_equivalent():
    keys = _keys(2500)

    def script(db):
        _load(db, keys)
        db.flush()
        rng = random.Random(5)
        trace = []
        for _ in range(120):
            low = keys[rng.randrange(len(keys))]
            high = low + b"\xff" * rng.choice([1, 2])
            trace.append(db.range_query(low, high,
                                        limit=rng.choice([None, 1, 4])))
        return trace

    _assert_equivalent(script)


def test_churn_exercises_incremental_evolve():
    keys = _keys(3000, seed=23)

    def script(db):
        rng = random.Random(77)
        trace = []
        for i, key in enumerate(keys):
            db.put(key, b"v%06d" % i)
            if i % 6 == 0:
                db.delete(keys[rng.randrange(len(keys))])
            if i % 40 == 13:
                low = keys[rng.randrange(len(keys))]
                trace.append(db.range_query(low, low + b"\xff\xff",
                                            limit=rng.choice([None, 3])))
        trace.append(db.range_query(b"\x00", b"\xff" * 8))
        return trace

    # The view-on run must actually maintain views across several
    # flush/compaction installs, not just build once.
    db = _tree()
    try:
        script(db)
        assert db.stats.flushes > 3
        assert db.stats.view_rebuild_segments >= db.stats.flushes
    finally:
        db.close()
    _assert_equivalent(script)


def test_scan_derives_prefix_bound_and_prunes():
    keys = [b"aa-%04d" % i for i in range(400)] + \
           [b"zz-%04d" % i for i in range(400)]

    def script(db):
        _load(db, keys)
        db.flush()
        before = db.stats.filter_negatives
        trace = [db.scan(b"aa-00"), db.scan(b"zz-03", limit=7),
                 db.scan(b"qq-")]
        # high=None still consults the filters via the derived prefix
        # bound: tables on the far side of the keyspace get pruned.
        assert db.stats.filter_negatives > before
        return trace

    _assert_equivalent(script)


def test_iterator_partial_consumption_equivalent():
    keys = _keys(1500, seed=3)

    def script(db):
        _load(db, keys)
        db.flush()
        trace = []
        for start, steps in ((keys[10][:2], 9), (keys[500][:1], 25),
                             (b"\x00", 3)):
            cursor = db.iterator(start)
            got = []
            while cursor.valid and len(got) < steps:
                got.append((cursor.key, cursor.value))
                cursor.next()
            cursor.close()
            trace.append(got)
        bounded = db.iterator(keys[0][:1], high=keys[0][:1] + b"\xff" * 4)
        trace.append(list(bounded))
        return trace

    _assert_equivalent(script)


def test_memtable_overlay_and_tombstones():
    keys = _keys(1200, seed=9)

    def script(db):
        _load(db, keys[:1000])
        db.flush()
        # Unflushed overlay: fresh keys, overwrites and deletes that must
        # shadow the sorted-view stream exactly like the classic merge.
        for i, key in enumerate(keys[1000:]):
            db.put(key, b"mem%04d" % i)
        for key in keys[0:600:17]:
            db.delete(key)
        for key in keys[1:600:23]:
            db.put(key, b"overwritten")
        return [db.range_query(b"\x00", b"\xff" * 8),
                db.range_query(keys[3], keys[3]),
                db.scan(keys[7][:2])]

    _assert_equivalent(script)


def test_degenerate_ranges():
    keys = _keys(300, seed=1)

    def script(db):
        _load(db, keys)
        db.flush()
        return [db.range_query(b"\xff" * 9, b"\x00"),     # low > high
                db.range_query(b"\x00", b"\x00"),          # empty window
                db.range_query(keys[5], keys[5]),          # singleton
                db.range_query(b"\xff" * 8, b"\xff" * 9)]  # past the end

    _assert_equivalent(script)


def test_snapshot_range_reads_equivalent():
    keys = _keys(1500, seed=41)

    def script(db):
        _load(db, keys)
        db.flush()
        for i, key in enumerate(keys[:50]):
            db.put(key, b"post%04d" % i)
        with db.snapshot() as snap:
            rng = random.Random(13)
            trace = []
            for _ in range(40):
                low = keys[rng.randrange(len(keys))]
                trace.append(snap.range_query(low, low + b"\xff\xff"))
            trace.append(snap.scan(keys[2][:2]))
            trace.append((snap.clock.now_us,))
        return trace

    _assert_equivalent(script)


def test_snapshot_isolated_from_later_writes():
    keys = _keys(800, seed=51)
    db = _tree()
    try:
        _load(db, keys)
        db.flush()
        with db.snapshot() as snap:
            before = snap.range_query(b"\x00", b"\xff" * 8)
            _load(db, [b"new-%04d" % i for i in range(300)], start=9000)
            db.flush()
            db.delete(keys[0])
            after = snap.range_query(b"\x00", b"\xff" * 8)
        assert before == after
        assert all(not key.startswith(b"new-") for key, _ in after)
    finally:
        db.close()
        assert db.leaked_pins == 0


# ------------------------------------------------------------- unit level


def test_view_built_lazily_and_carried_on_version():
    db = _tree()
    try:
        _load(db, _keys(600, seed=4))
        db.flush()
        version = db.versions.current
        assert version._view is None  # no range read yet
        db.range_query(b"\x00", b"\xff" * 8)
        view = db.versions.current._view
        assert isinstance(view, SortedView)
        # Same version, second query: reused, not rebuilt.
        assert db.versions.current._view is view
    finally:
        db.close()


def test_view_segments_cover_all_live_keys():
    db = _tree()
    keys = sorted(set(_keys(900, seed=8)))
    try:
        _load(db, keys)
        db.flush()
        view = ensure_view(db.versions.current)
        flat = [key for segment in view.seg_keys for key in segment]
        live = {k for k, _ in db.range_query(b"\x00", b"\xff" * 8)}
        assert live <= set(flat)
        assert flat == sorted(flat)
        for segment, lo, hi in zip(view.seg_keys, view.seg_los, view.seg_his):
            assert segment[0] == lo and segment[-1] == hi
    finally:
        db.close()


def test_incremental_evolve_reuses_unchanged_segments():
    # Enough keys for several SEGMENT_TARGET-sized segments, so a
    # key-clustered flush demonstrably rebuilds a strict subset.
    db = _tree(memtable_size_bytes=2 * 1024 * 1024,
               sstable_target_bytes=256 * 1024)
    try:
        keys = sorted(set(_keys(14000, seed=29)))
        _load(db, keys)
        db.flush()
        db.range_query(b"\x00", b"\xff" * 8)
        base_view = db.versions.current._view
        total_segments = len(base_view.seg_keys)
        assert total_segments >= 3
        # A flush clustered at the top of the keyspace intersects only
        # the final segment's span.
        for i in range(40):
            db.put(b"\xfe" + b"hot-%04d" % i, b"x")
        db.flush()
        evolved = db.versions.current._view
        assert evolved is not None and evolved is not base_view
        assert 0 < evolved.rebuilt_segments < total_segments
        with_view = db.range_query(b"\x00", b"\xff" * 8)
        assert [k for k, _ in with_view] == sorted(
            set(keys) | {b"\xfe" + b"hot-%04d" % i for i in range(40)})
    finally:
        db.close()


def test_unmappable_device_never_builds_a_view():
    db = _tree(mappable=False)
    try:
        _load(db, _keys(500, seed=6))
        db.flush()
        db.range_query(b"\x00", b"\xff" * 8)
        assert db.versions.current._view is UNBUILDABLE
        assert db.stats.sorted_view_seeks == 0
        assert db.stats.view_rebuild_segments == 0
    finally:
        db.close()


def test_counters_route_through_view():
    db = _tree()
    try:
        _load(db, _keys(500, seed=16))
        db.flush()
        db.range_query(b"\x00", b"\xff" * 8)
        db.scan(b"\x10")
        assert db.stats.range_queries == 2
        assert db.stats.sorted_view_seeks == 2
        assert db.stats.view_rebuild_segments > 0
    finally:
        db.close()
