"""Range-read twin suite (DESIGN.md section 13).

Every range surface (``range_query``/``scan``/``iterator``, live and on a
snapshot) runs the one heap merge over lazily read table blocks.  The
suite holds it to the same store on a device whose files cannot be
mapped (``reference.unmappable``): there every block decodes from a
device read instead of the mapped region, and results, ``DBStats``,
per-filter stats and the simulated clock must stay **bit-identical** —
across bulk loads, write/delete/flush churn with its compaction
installs, memtable overlays, partial cursors and snapshots.
"""

from __future__ import annotations

import dataclasses
import random


from reference.unmappable import UnmappableDevice

from repro.filters import SuRFBuilder
from repro.lsm.db import LSMTree
from repro.lsm.options import LSMOptions
from repro.storage.clock import SimClock
from repro.storage.device import StorageDevice


def _options(**overrides) -> LSMOptions:
    defaults = dict(filter_builder=SuRFBuilder(variant="real", suffix_bits=8),
                    sstable_target_bytes=8 * 1024,
                    memtable_size_bytes=8 * 1024, seed=7)
    defaults.update(overrides)
    return LSMOptions(**defaults)


def _tree(mappable: bool = True, **overrides) -> LSMTree:
    """A store on a mappable or an unmappable device."""
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


def _run_script(mappable: bool, script, **options):
    db = _tree(mappable, **options)
    try:
        trace = script(db)
        return (trace, db.clock.now_us, dataclasses.asdict(db.stats),
                _filter_stats(db))
    finally:
        db.close()
        assert db.leaked_pins == 0


def _assert_equivalent(script, **options):
    mapped = _run_script(True, script, **options)
    unmapped = _run_script(False, script, **options)
    assert mapped[0] == unmapped[0], "results diverged"
    assert mapped[1] == unmapped[1], "simulated clocks diverged"
    assert mapped[2] == unmapped[2], "DBStats diverged"
    assert mapped[3] == unmapped[3], "per-filter stats diverged"


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


def test_churn_ranges_equivalent():
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
        # The range reads really spanned several flush/compaction installs.
        assert db.stats.flushes > 3
        return trace

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
        # A scan consults the filters via the derived prefix bound:
        # tables on the far side of the keyspace get pruned.
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
        # shadow the tables' entries in the merge.
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


def test_clock_pinned_to_the_sorted_view_era():
    """The merge replays what the deleted sorted view charged: these
    values were read at 90df9bd, where every range read on a mappable
    device walked the view (live tree, cursors and a snapshot)."""
    keys = _keys(3000, seed=23)
    db = _tree()
    rng = random.Random(77)
    returned = 0
    try:
        for i, key in enumerate(keys):
            db.put(key, b"v%06d" % i)
            if i % 6 == 0:
                db.delete(keys[rng.randrange(len(keys))])
            if i % 40 == 13:
                low = keys[rng.randrange(len(keys))]
                returned += len(db.range_query(
                    low, low + b"\xff\xff", limit=rng.choice([None, 3])))
        for start in (keys[10][:2], keys[500][:1]):
            cursor = db.iterator(start)
            for _ in range(20):
                if not cursor.valid:
                    break
                cursor.next()
            cursor.close()
        with db.snapshot() as snap:
            for _ in range(30):
                low = keys[rng.randrange(len(keys))]
                returned += len(snap.range_query(low, low + b"\xff"))
            assert snap.clock.now_us == 116227.14150954496
        assert len(db.range_query(b"\x00", b"\xff" * 8)) == 2765
        assert returned == 59
        assert db.clock.now_us == 116401.68949893366
        stats = db.stats
        assert (stats.range_queries, stats.filter_checks,
                stats.filter_negatives, stats.table_reads) == (76, 167, 83, 95)
        cache = db.cache.stats
        assert (cache.hits, cache.misses, cache.decoded_hits,
                cache.decoded_misses) == (161, 49, 82, 43)
    finally:
        db.close()
