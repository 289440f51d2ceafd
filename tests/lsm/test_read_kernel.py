"""The batch point-read kernel against the plain scalar loop.

``read_path.read_points`` serves every point read: one key or a batch,
with or without a probe plan, with or without a service's request
envelope.  Its jitter draws are inline (``gauss_pair`` with the cost
generator's ``gauss_next`` held in a local), its counters are flushed at
the end of the batch, and its charges skip ``SimClock.charge`` — all of
which must be invisible.  Two stores built from the same script are read
with the same keys, one through the kernel, one through
``tests/reference/point_read.py``, and everything observable must be
equal: every value the clock takes, per-key times, ``DBStats``, filter
and cache stats, the LRU order of pages and decoded blocks, and the
state of the cost and device RNG streams.

The extension-shaped cases read what the attack's step 3 reads: one
prefix's consecutive suffixes, the runs the kernel serves from one
cached block (``PageCache.repeat_hit``) and the LOUDS probe serves from
one descent.  Their caches hold one or two pages, so a block straddling
two pages evicts its own first page, and ``on_found`` churns or
invalidates the cache in the middle of a run.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
from reference.point_read import scalar_get_many_timed

from repro.filters import BloomFilterBuilder, SuRFBuilder
from repro.lsm.db import LSMTree
from repro.lsm.options import LSMOptions
from repro.storage.clock import SimClock
from repro.storage.device import StorageDevice


class RecordingClock(SimClock):
    """A SimClock that logs every value it takes, however it is charged."""

    __slots__ = ("log", "_now")

    def __init__(self) -> None:
        self.log = []
        super().__init__()

    @property
    def now_us(self) -> float:
        return self._now

    @now_us.setter
    def now_us(self, value: float) -> None:
        self._now = value
        self.log.append(value)


FILTERS = {
    "none": lambda: None,
    "bloom": lambda: BloomFilterBuilder(bits_per_key=4.0),
    "surf": lambda: SuRFBuilder("real", 4),
}
#: The extension cases add LOUDS SuRFs, whose batch probe reuses a
#: verdict along a run of keys.
EXTENSION_FILTERS = dict(
    FILTERS, **{"surf-louds": lambda: SuRFBuilder("real", 9, backend="louds"),
                "surf-base-louds": lambda: SuRFBuilder("base",
                                                       backend="louds")})
KEYS = [b"k%02d" % i for i in range(48)]
key = st.sampled_from(KEYS)
#: Values big enough that a few tables overflow the one-page cache.
value = st.tuples(st.integers(1, 255), st.integers(100, 400)).map(
    lambda fill: bytes([fill[0]]) * fill[1])
write = st.one_of(st.tuples(st.just("put"), key, value),
                  st.tuples(st.just("delete"), key, st.just(b"")))
batch = st.lists(write, min_size=4, max_size=30)
#: (flushed runs, how many runs in to compact everything down — past the
#: end: never —, the memtable's writes).
scripts = st.tuples(st.lists(batch, max_size=4), st.integers(0, 5),
                    st.lists(write, max_size=20))
probes = st.lists(st.one_of(key, key, st.binary(min_size=1, max_size=3)),
                  min_size=8, max_size=40)


def build(script, filter_name, cache_pages=1, table_bytes=None):
    """A store from ``script``: small blocks, a run per flushed batch (no
    compaction trigger fires; with ``table_bytes`` a compaction splits
    its output into tables that small), a cache of ``cache_pages`` pages
    the tables overflow, and every clock value logged."""
    runs, compact_at, tail = script
    clock = RecordingClock()
    sizes = {} if table_bytes is None else {
        "sstable_target_bytes": table_bytes}
    db = LSMTree(LSMOptions(memtable_size_bytes=1 << 20, block_size_bytes=128,
                            **sizes, l0_compaction_trigger=50,
                            page_cache_bytes=4096 * cache_pages,
                            filter_builder=EXTENSION_FILTERS[filter_name]()),
                 clock=clock, device=StorageDevice(clock))

    def apply(writes):
        for op, k, value in writes:
            if op == "put":
                db.put(k, value)
            else:
                db.delete(k)

    for index, run in enumerate(runs):
        if index == compact_at:
            db.compact_all()
        apply(run)
        db.flush()
    apply(tail)
    clock.log.clear()
    return db


def observables(db, ctx, filters_of):
    return {
        "stats": dict(vars(ctx.stats)),
        "filters": [(t.filter.stats.point_queries, t.filter.stats.positives)
                    for t in filters_of],
        "cache": dict(vars(ctx.cache.stats)),
        "pages": list(ctx.cache._pages),
        "front": (ctx.cache._front, ctx.cache._front_size),
        "decoded": list(ctx.cache._decoded),
        "cost_rng": ctx._cost_rng.generator.getstate(),
        "clock": ctx.clock.now_us,
        "pins": db.versions.pinned_count(),
    }


def envelope(ctx, use_envelope, stop_byte):
    """A service-shaped envelope: an admission that stalls every third
    key (a rate limiter's), a request charge, a charged check on each
    found value (drawing from the same stream), an early exit."""
    if not use_envelope:
        return {}

    admitted = []

    def admit():
        admitted.append(None)
        if len(admitted) % 3 == 0:
            ctx.clock.charge(7.5)

    def on_found(value):
        ctx.charge_cost(0.3)
        return value

    until = None if stop_byte is None else (
        lambda value: value[-1] == stop_byte)
    return {"request_us": 1.0, "on_found": on_found, "until": until,
            "admit": admit}


@settings(max_examples=150, deadline=None)
@given(script=scripts, keys=probes, filter_name=st.sampled_from(sorted(FILTERS)),
       use_envelope=st.booleans(),
       stop_byte=st.one_of(st.none(), st.integers(0, 255)),
       snapshot=st.booleans())
def test_kernel_matches_scalar_reference(script, keys, filter_name,
                                         use_envelope, stop_byte, snapshot):
    keys = keys + keys[:5]  # duplicates replay identically
    worlds = []
    for use_kernel in (True, False):
        db = build(script, filter_name)
        ctx = db.snapshot() if snapshot else db
        version = ctx.version if snapshot else None
        extra = envelope(ctx, use_envelope, stop_byte)
        if use_kernel:
            timed = ctx.get_many_timed(keys, **extra)
        else:
            timed = scalar_get_many_timed(ctx, keys, version, **extra)
        filters_of = [t for t in db.version.all_tables()
                      if t.filter is not None]
        worlds.append((timed, list(db.clock.log),
                       observables(db, ctx, filters_of),
                       db.device._rng.generator.getstate()))
        if snapshot:
            ctx.close()
        db.close()
        assert db.leaked_pins == 0
    assert worlds[0] == worlds[1]


@settings(max_examples=60, deadline=None)
@given(script=scripts, keys=probes, filter_name=st.sampled_from(sorted(FILTERS)))
def test_scalar_get_matches_scalar_reference(script, keys, filter_name):
    """``get`` is the kernel over one key: a get loop is the reference."""
    worlds = []
    for use_kernel in (True, False):
        db = build(script, filter_name)
        if use_kernel:
            values = [db.get(k) for k in keys]
        else:
            values = [value for value, _ in
                      scalar_get_many_timed(db, keys)]
        filters_of = [t for t in db.version.all_tables()
                      if t.filter is not None]
        worlds.append((values, list(db.clock.log),
                       observables(db, db, filters_of)))
        db.close()
    assert worlds[0] == worlds[1]


# ------------------------------------------------------ extension-shaped

def read_both_ways(script, filter_name, keys, snapshot, make_envelope,
                   cache_pages, table_bytes):
    """Read ``keys`` from two stores built from ``script``, through the
    kernel and through the scalar reference; everything observable."""
    worlds = []
    for use_kernel in (True, False):
        db = build(script, filter_name, cache_pages, table_bytes)
        ctx = db.snapshot() if snapshot else db
        version = ctx.version if snapshot else None
        extra = make_envelope(ctx)
        if use_kernel:
            timed = ctx.get_many_timed(keys, **extra)
        else:
            timed = scalar_get_many_timed(ctx, keys, version, **extra)
        filters_of = [t for t in db.version.all_tables()
                      if t.filter is not None]
        worlds.append((timed, list(db.clock.log),
                       observables(db, ctx, filters_of),
                       db.device._rng.generator.getstate()))
        if snapshot:
            ctx.close()
        db.close()
        assert db.leaked_pins == 0
    return worlds


PREFIX = b"px"


def suffixed(number):
    """The prefix plus a two-byte suffix (numbers past 255 carry)."""
    return PREFIX + number.to_bytes(2, "big")


ext_key = st.integers(0, 600).map(suffixed)
#: Values from a few bytes to past a block: blocks of one to several
#: records, tables of a few pages, some blocks straddling a page edge.
ext_value = st.tuples(st.integers(1, 255), st.integers(4, 200)).map(
    lambda fill: bytes([fill[0]]) * fill[1])
ext_write = st.one_of(st.tuples(st.just("put"), ext_key, ext_value),
                      st.tuples(st.just("put"), ext_key, ext_value),
                      st.tuples(st.just("delete"), ext_key, st.just(b"")))
ext_scripts = st.tuples(
    st.lists(st.lists(ext_write, min_size=10, max_size=70), max_size=3),
    st.integers(0, 4), st.lists(ext_write, max_size=8))


@st.composite
def extension_probes(draw):
    """Consecutive suffixes from one start, with a few keys repeated in
    place, and keys shorter than a full one (the prefix, the prefix plus
    a byte) that sort right before the suffixes they prefix."""
    start = draw(st.integers(0, 560))
    keys = [suffixed(number)
            for number in range(start, start + draw(st.integers(8, 90)))]
    for at in draw(st.lists(st.integers(0, len(keys) - 1), max_size=4)):
        keys.insert(at, keys[at])
    for at in draw(st.lists(st.integers(0, len(keys) - 1), max_size=3)):
        keys.insert(at, keys[at][:draw(st.integers(len(PREFIX), 3))])
    return keys


def churning_envelope(ctx, use_envelope, churn, every):
    """The service envelope, whose found-value check also churns the
    cache (``displace``) or invalidates every table file, on every
    ``every``-th found value: in the middle of a run, mostly."""
    found = []

    def on_found(value):
        ctx.charge_cost(0.3)
        found.append(value)
        if len(found) % every == 0:
            if churn == "displace":
                ctx.cache.displace(len(found) % 3, 4096)
            elif churn == "invalidate":
                for table in ctx.version.all_tables():
                    ctx.cache.invalidate_file(table.path)
        return value

    return {"request_us": 1.0 if use_envelope else None,
            "on_found": on_found}


@settings(max_examples=150, deadline=None)
@given(script=ext_scripts, keys=extension_probes(),
       filter_name=st.sampled_from(sorted(EXTENSION_FILTERS)),
       cache_pages=st.sampled_from([1, 2]),
       churn=st.sampled_from([None, "displace", "invalidate"]),
       every=st.integers(1, 4), use_envelope=st.booleans(),
       snapshot=st.booleans())
def test_extension_runs_match_scalar_reference(script, keys, filter_name,
                                               cache_pages, churn, every,
                                               use_envelope, snapshot):
    worlds = read_both_ways(
        script, filter_name, keys, snapshot,
        lambda ctx: churning_envelope(ctx, use_envelope, churn, every),
        cache_pages, table_bytes=2048)
    assert worlds[0] == worlds[1]


def test_a_found_value_ends_a_held_run():
    # One table of small blocks, every other key stored: each block is
    # read once, its next keys repeat its hit (the run holds), and the
    # found value's check churns the whole one-page cache in mid-run, so
    # the key after it must read the block from the device again.
    stored = [b"k%02d" % i for i in range(0, 48, 2)]
    script = ([[("put", key, b"v" * 20) for key in stored]], 5, [])
    keys = [key + tail for key in stored for tail in (b"", b"a", b"b")]
    worlds = read_both_ways(
        script, "none", keys, False,
        lambda ctx: churning_envelope(ctx, False, "displace", 1),
        cache_pages=1, table_bytes=None)
    assert worlds[0] == worlds[1]
    assert worlds[0][2]["cache"]["misses"] > len(stored) // 2
