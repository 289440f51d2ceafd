"""The one read path: every read is a :class:`ReadView`.

A view is one (memtable, version) pair plus what its reads charge: the
simulated clock, the cost RNG stream, the page cache and the stats.  It
defines the whole read surface once — point, batch, range, cursor and
the ground-truth ``*filters_pass`` oracles — so the side channel (filter
verdicts, charges, stats) cannot depend on who serves a query.  Two
kinds of reader hold one:

* :class:`~repro.lsm.db.LSMTree` opens a short-lived view per read, in
  one place (``LSMTree._read_view``): the memtable first, then the
  version pin.  A flush swaps in a new memtable and never empties the
  old one, so a flush landing between the two leaves its records in both
  halves of the pair, and the pair is complete for the whole read.
* :class:`~repro.lsm.snapshot.SnapshotView` *is* a long-lived view over
  a frozen copy of the memtable, on its own clock, RNG streams and cache.

Every point read — ``get``, a batch, a getter call — is one search loop,
:func:`read_points`, over a batch of keys; every range read is one heap
merge, :func:`merged_entries`.
"""

from __future__ import annotations

from math import cos, log, sin, sqrt, tau
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.common.errors import ConfigError, DBClosedError
from repro.filters.base import Filter
from repro.lsm.iterator import DBIterator, merge_entries
from repro.lsm.memtable import Entry
from repro.lsm.options import (
    BLOCK_SEARCH_COST_US,
    COST_JITTER,
    FILTER_QUERY_COST_US,
    GET_BASE_COST_US,
    INDEX_LOOKUP_COST_US,
    MEMTABLE_LOOKUP_COST_US,
    RANGE_NEXT_COST_US,
    RANGE_SEEK_COST_US,
)
from repro.lsm.sstable import SSTable
from repro.storage.page_cache import CACHE_HIT_COST_US

#: What a batch with nothing memoized looks up (never written).
_NOTHING: Dict = {}


class ProbePlan:
    """Memoized pure filter verdicts for one batch of point queries.

    Built by the :func:`probe_plan` prepass, which batches the probes
    per filter (vectorized Bloom hashing, shared-prefix LOUDS traversal)
    *without* touching stats, clock, or RNG.  The replay —
    :func:`read_points` — then substitutes a dictionary lookup for each
    scalar ``may_contain`` call and records stats only for verdicts it
    actually consumes, so simulated time, verdicts and every counter are
    bit-identical with or without a plan.  A missing entry means
    "compute scalar", never "False".

    A plan holds no pin: the view it was computed over does, for the
    whole batch.  Only ``LSMTree.probe_plan`` hands a plan out of its
    view; that plan holds the live view it opened until :meth:`release`
    (idempotent), and one never released is reclaimed at ``db.close()``
    and counted as a leak.
    """

    __slots__ = ("verdicts", "candidates", "view")

    def __init__(self) -> None:
        #: filter -> {key: verdict}, for every (filter, key) pair on the
        #: batch's search paths.
        self.verdicts: Dict[Filter, Dict[bytes, bool]] = {}
        #: key -> tuple of candidate SSTables, memoized by the prepass so
        #: the replay need not repeat the version walk.
        self.candidates: Dict[bytes, Tuple[SSTable, ...]] = {}
        #: The view :meth:`release` closes; None when the caller owns it.
        self.view: Optional[ReadView] = None

    def release(self) -> None:
        """Close the view the plan holds, if any (idempotent)."""
        view, self.view = self.view, None
        if view is not None:
            view.close()


class ReadView:
    """Reads over one (memtable, version) pair, charged to one context.

    ``db`` is the tree the version is pinned in: :meth:`close` returns
    the pin there, and a view outliving the tree refuses to read.
    """

    __slots__ = ("_db", "_memtable", "version", "clock", "cache", "stats",
                 "_cost_rng", "_closed")

    def __init__(self, db, memtable, version, clock, cache, stats,
                 cost_rng) -> None:
        self._db = db
        self._memtable = memtable
        self.version = version
        self.clock = clock
        self.cache = cache
        self.stats = stats
        self._cost_rng = cost_rng
        self._closed = False

    # -------------------------------------------------------------- lifecycle

    def close(self) -> None:
        """Release the version pin (idempotent)."""
        if self._closed:
            return
        self._closed = True
        # A view left open across db.close() was already counted as a
        # leak and force-released there; only unpin while the db lives.
        if not self._db._closed:
            self._db.versions.unpin(self.version)

    def _check_open(self) -> None:
        if self._closed:
            raise DBClosedError(f"operation on closed {type(self).__name__}")
        if self._db._closed:
            raise DBClosedError(
                f"{type(self).__name__} outlived its closed LSMTree")

    def charge_cost(self, base_us: float) -> None:
        """Charge an in-memory cost with the cost model's relative jitter."""
        self.clock.charge(
            base_us * max(0.1, self._cost_rng.gauss(1.0, COST_JITTER)))

    # ------------------------------------------------------------ point reads

    def get(self, key: bytes) -> Optional[bytes]:
        """Point query; returns the value or None.

        Charges the simulated clock for every step, making the response
        time (via ``clock.measure()``) the attacker-visible signal.
        """
        self._check_open()
        return read_points(self, (key,))[0][0]

    def get_timed(self, key: bytes) -> Tuple[Optional[bytes], float]:
        """``get`` plus its simulated response time in microseconds."""
        with self.clock.measure() as stopwatch:
            value = self.get(key)
        return value, stopwatch.elapsed_us

    def probe_plan(self, keys: Iterable[bytes]) -> Optional[ProbePlan]:
        """Pure batched-probe prepass (:func:`probe_plan`) over this view."""
        self._check_open()
        return probe_plan(self, keys)

    def getter(self) -> Callable[[bytes], Optional[bytes]]:
        """Point-read closure for per-key callers: :meth:`get`, which
        reads this view and raises once it is closed."""
        self._check_open()
        return self.get

    def get_many(self, keys: Iterable[bytes],
                 request_us: Optional[float] = None, on_found=None,
                 until=None, admit=None) -> List[object]:
        """Batch point query: ``[self.get(k) for k in keys]``, one pass of
        the search loop (:func:`read_points`) replaying the prepass.

        A service issuing the batch passes its per-request envelope:
        ``admit()`` runs before each key (a rate limiter's admission,
        outside the key's time), ``request_us`` is charged (jittered)
        before each key, ``on_found(value)`` runs on each found value and
        its result is returned in the value's place, and
        ``until(result)`` ends the batch at the first found key it
        accepts.  Identical simulated-time behaviour to the equivalent
        per-key loop.
        """
        return self._read_many(keys, request_us, on_found, until, admit)[0]

    def get_many_timed(self, keys: Iterable[bytes],
                       request_us: Optional[float] = None, on_found=None,
                       until=None, admit=None) -> List[Tuple[object, float]]:
        """Batch ``get_timed``: per-key (value, simulated elapsed us), with
        :meth:`get_many`'s envelope inside each key's time (``admit``
        before it)."""
        return list(zip(*self._read_many(keys, request_us, on_found, until,
                                         admit)))

    def _read_many(self, keys, request_us, on_found, until, admit
                   ) -> Tuple[List[object], List[float]]:
        self._check_open()
        keys = list(keys)
        return read_points(self, keys, probe_plan(self, keys), request_us,
                           on_found, until, admit)

    # ------------------------------------------------------- attack-side APIs

    def filters_pass(self, key: bytes) -> bool:
        """Whether a ``get`` for ``key`` would read at least one table.

        The "internal debugging counter" oracle of paper section 10.2.2:
        some filter on the search path passes, or some candidate table has
        no filter.  Charges no simulated time and performs no I/O.
        """
        self._check_open()
        for table in self.version.candidates_for_key(key):
            if table.filter is None or table.filter.may_contain(key):
                return True
        return False

    def filters_pass_many(self, keys: Iterable[bytes]) -> List[bool]:
        """Batch :meth:`filters_pass`: one batched probe per filter.

        Exactly ``[self.filters_pass(k) for k in keys]`` — same verdicts,
        same short-circuit filter-stats accounting (a key's later filters
        are not probed, and not recorded, once one passes).  Unlike the
        get path this ignores the memtable, so the prepass covers every
        key.
        """
        self._check_open()
        keys = list(keys)
        plan = probe_plan(self, keys, include_memtable_hits=True)
        if plan is None:
            # No candidate table carries a filter: any candidate passes.
            return [self.filters_pass(key) for key in keys]
        verdicts = plan.verdicts
        out: List[bool] = []
        for key in keys:
            passed_any = False
            for table in plan.candidates[key]:
                filt = table.filter
                if filt is None:
                    passed_any = True
                    break
                passed = verdicts[filt][key]
                filt.stats.record_point(passed)
                if passed:
                    passed_any = True
                    break
            out.append(passed_any)
        return out

    def range_filters_pass(self, low: bytes, high: bytes) -> bool:
        """Whether a ``range_query(low, high)`` would read at least one table.

        The range-query analogue of :meth:`filters_pass`, used by the
        idealized range-descent attack (the range-query attack the paper's
        section 11 anticipates).
        """
        self._check_open()
        if low > high:
            return False
        version = self.version
        for level in range(version.max_levels):
            for table in version.overlapping(level, low, high):
                filt = table.range_filter
                if filt is None or filt.may_contain_range(low, high):
                    return True
        return False

    # ------------------------------------------------------------ range reads

    def range_query(self, low: bytes, high: bytes,
                    limit: Optional[int] = None) -> List[Tuple[bytes, bytes]]:
        """All pairs with ``low <= key <= high`` (inclusive), in key order.

        Each table's range filter (when available) skips tables whose
        filter proves the intersection empty — the optimization that
        motivated range filters (paper section 2.2).  ``limit`` caps the
        pairs returned; ``limit=0``, like ``low > high``, reads, charges
        and counts nothing, and a negative ``limit`` raises
        ``ConfigError``.  The consumption loop hoists the per-step charge
        exactly as :meth:`charge_cost` computes it.
        """
        self._check_open()
        if limit is not None and limit < 0:
            raise ConfigError(f"range limit must be >= 0, got {limit}")
        if low > high or limit == 0:
            return []
        self.stats.range_queries += 1
        self.charge_cost(RANGE_SEEK_COST_US)
        merged = merged_entries(self, plan_range_sources(self, low, high),
                                low, high)
        gauss = self._cost_rng.gauss
        clock_charge = self.clock.charge
        out: List[Tuple[bytes, bytes]] = []
        append = out.append
        for key, entry in merged:
            clock_charge(RANGE_NEXT_COST_US
                         * max(0.1, gauss(1.0, COST_JITTER)))
            if entry.is_tombstone:
                continue
            append((key, entry.value))
            if limit is not None and len(out) >= limit:
                break
        return out

    def scan(self, prefix: bytes, limit: Optional[int] = None
             ) -> List[Tuple[bytes, bytes]]:
        """Prefix scan: every pair whose key extends ``prefix``, in order.

        A bounded :meth:`range_query`, so range filters prune it like any
        other.  The bound is the prefix's successor, the least key above
        every extension (``b"ab\\xff"`` -> ``b"ac"``), and dropped from the
        answer if present.  A prefix without one (empty, or all ``0xff``)
        reads up to the largest key the view holds.  For an unbounded
        cursor use :meth:`iterator`.
        """
        stem = prefix.rstrip(b"\xff")
        if stem:
            high = stem[:-1] + bytes((stem[-1] + 1,))
        else:
            high = max([table.max_key for table in self.version.all_tables()]
                       + [self._memtable.max_key() or prefix])
        out = self.range_query(prefix, high, limit)
        if out and not out[-1][0].startswith(prefix):
            out.pop()
        return out

    def iterator(self, low: bytes = b"", high: Optional[bytes] = None
                 ) -> DBIterator:
        """Forward cursor over ``[low, high]`` (RocksDB-iterator analogue).

        Uses range filters to skip tables whose filters prove the bound
        range empty (only when ``high`` is given — an open-ended cursor
        has no range to test; :meth:`scan` is the prefix-bounded
        alternative).  Each step charges the range-iteration cost, and
        the step after this view closes raises ``DBClosedError``.
        """
        return self._cursor(low, high, None)

    def _cursor(self, low: bytes, high: Optional[bytes],
                on_close: Optional[Callable[[], None]]) -> DBIterator:
        """:meth:`iterator`, with what the cursor's ``close`` runs."""
        self._check_open()
        self.charge_cost(RANGE_SEEK_COST_US)
        active = plan_range_sources(self, low, high)
        return DBIterator(merged_entries(self, active, low, None), self,
                          high, on_close)


# ------------------------------------------------------------- point reads

def probe_plan(view: ReadView, keys: Iterable[bytes],
               include_memtable_hits: bool = False) -> Optional[ProbePlan]:
    """Pure batched-probe prepass for a batch of point queries.

    Walks the batch's candidate tables in one pass
    (:meth:`Version.candidates_for_keys`), collects per filter the unique
    keys the search loop could probe it with, and computes their verdicts
    through each filter's batch probe (:meth:`Filter.probe_many`).
    Touches no stats, clock, or RNG: the verdicts are memoized for the
    replay to consume in the scalar loop's own order.  Keys in the view's
    memtable are skipped (their gets never reach a filter) unless
    ``include_memtable_hits`` — :meth:`ReadView.filters_pass_many`
    probes filters regardless of the memtable.

    Returns None when nothing needs probing.
    """
    todo = list(dict.fromkeys(keys))
    memtable = view._memtable
    if not include_memtable_hits and len(memtable):
        in_memtable = memtable.get
        todo = [key for key in todo if in_memtable(key) is None]
    tables_of = view.version.candidates_for_keys(todo)
    groups: Dict[Filter, List[bytes]] = {}
    # A run of keys shares one candidate tuple (the same object): each
    # run joins its filters' groups in one step.
    start = 0
    count = len(todo)
    for stop in range(1, count + 1):
        if stop < count and tables_of[stop] is tables_of[start]:
            continue
        for table in tables_of[start]:
            filt = table.filter
            if filt is not None:
                group = groups.get(filt)
                if group is None:
                    group = groups[filt] = []
                group += todo[start:stop]
        start = stop
    if not groups:
        return None
    plan = ProbePlan()
    plan.candidates = dict(zip(todo, tables_of))
    for filt, filt_keys in groups.items():
        plan.verdicts[filt] = dict(zip(filt_keys, filt.probe_many(filt_keys)))
    return plan


def read_points(view: ReadView, keys: Sequence[bytes],
                plan: Optional[ProbePlan] = None,
                request_us: Optional[float] = None,
                on_found: Optional[Callable[[bytes], object]] = None,
                until: Optional[Callable[[object], bool]] = None,
                admit: Optional[Callable[[], None]] = None
                ) -> Tuple[List[object], List[float]]:
    """The point-search loop, over a batch of keys in order.

    Per key: the caller's request charge (``request_us``, when a service
    issues the batch), the get charge, the view's memtable, then the
    candidate tables of the view's version top-down — L0 newest-first,
    one table per deeper level — each table's filter consulted (and
    charged) before its data block is read.  The response time is the
    attacker-visible signal, so every charge is applied to
    ``view.clock`` in the scalar order, jittered by a draw from
    ``view._cost_rng`` exactly as ``view.charge_cost`` would draw it:
    each draw is ``random.Random.gauss``'s Box-Muller body written out
    inline (two uniforms per pair of deviates, the second parked), with
    the generator's ``gauss_next`` held in a local and written back
    before anything else can draw (``on_found``, the end of the batch).
    The same floats and generator state as ``gauss`` (held by
    ``tests/common/test_rng.py``), without a call per draw; the clamp
    is ``max(0.1, j)`` spelled as a conditional for the same reason.
    Counters accumulate in locals and reach ``view.stats`` and the
    filters' stats in ``finally``.

    ``on_found`` runs on each found value (a service's ACL check; it may
    charge the same clock and stream) and its result replaces the value.
    With ``until``, the batch ends after the first found key whose
    result satisfies it: later keys are never issued.  ``admit`` (a rate
    limiter's admission) runs before each issued key's first charge and
    outside its time; it may advance the clock but must not draw from
    the cost stream or touch the cache.

    Tables come from the plan when it memoized the key (verdicts
    replayed, consumed ones counted as ``may_contain`` would count
    them), else from the view's version.

    Runs: every data-block read starts a run — the reader, the block,
    its key span and its cache key.  A later table read by the same
    reader, for a key in the same span, repeats the block's hit without
    the index bisect and ``read_decoded`` when the cache confirms that
    the repeat would move nothing (:meth:`PageCache.repeat_hit`, which
    then charges the index lookup and one cache hit per page and counts
    the hit); the kernel charges the block search itself.  Once
    confirmed, the run *holds*: between two table reads this loop
    touches the cache only through ``on_found`` and ``until``, so until
    one of them runs or another block is read, the pages stay the LRU's
    tail and the kernel repeats the same charges and counts itself.
    (The other thread that reaches the cache, background compaction,
    only invalidates files; a repeat it races with is one it could have
    followed, as a hit that moves nothing leaves the state it found.)

    Returns ``(results, elapsed_us)`` for the keys issued: each key's
    value (or ``on_found``'s result), None when absent, and the
    simulated µs from before its first charge to after ``on_found``.
    """
    stats = view.stats
    clock = view.clock
    cache = view.cache
    cache_clock = cache.device.clock
    cache_stats = cache.stats
    repeat_hit = cache.repeat_hit
    block_size = cache.device.model.block_size
    memtable_get = view._memtable.get
    search = view.version
    rng = view._cost_rng.generator
    uniform = rng.random
    base_cost = GET_BASE_COST_US + MEMTABLE_LOOKUP_COST_US
    if plan is not None:
        known, verdicts = plan.candidates, plan.verdicts
    else:
        known = verdicts = _NOTHING
    results: List[object] = []
    elapsed: List[float] = []
    gets = memtable_hits = filter_checks = filter_negatives = 0
    table_reads = 0
    #: filter -> [queries, positives] of the plan verdicts consumed.
    tallies: Dict[Filter, List[int]] = {}
    last_filter = memo = tally = None
    #: The current run (see Runs above): none until a block read.
    run_reader = run_block = run_key = None
    run_low = run_high = b""
    run_pages = 0
    run_holds = False
    spare = rng.gauss_next
    try:
        for key in keys:
            if admit is not None:
                admit()
            start = clock.now_us
            if request_us is not None:
                if spare is None:
                    x2pi = uniform() * tau
                    g2rad = sqrt(-2.0 * log(1.0 - uniform()))
                    z = cos(x2pi) * g2rad
                    spare = sin(x2pi) * g2rad
                else:
                    z = spare
                    spare = None
                j = 1.0 + z * COST_JITTER
                clock.now_us += request_us * (j if j > 0.1 else 0.1)
            gets += 1
            if spare is None:
                x2pi = uniform() * tau
                g2rad = sqrt(-2.0 * log(1.0 - uniform()))
                z = cos(x2pi) * g2rad
                spare = sin(x2pi) * g2rad
            else:
                z = spare
                spare = None
            j = 1.0 + z * COST_JITTER
            clock.now_us += base_cost * (j if j > 0.1 else 0.1)
            entry = memtable_get(key)
            if entry is not None:
                memtable_hits += 1
                value = entry.value
            else:
                tables = known.get(key)
                if tables is None:
                    tables = search.candidates_for_key(key)
                value = None
                for table in tables:
                    filt = table.filter
                    if filt is not None:
                        filter_checks += 1
                        if spare is None:
                            x2pi = uniform() * tau
                            g2rad = sqrt(-2.0 * log(1.0 - uniform()))
                            z = cos(x2pi) * g2rad
                            spare = sin(x2pi) * g2rad
                        else:
                            z = spare
                            spare = None
                        j = 1.0 + z * COST_JITTER
                        clock.now_us += (FILTER_QUERY_COST_US
                                         * (j if j > 0.1 else 0.1))
                        if filt is not last_filter:
                            last_filter = filt
                            memo = verdicts.get(filt, _NOTHING)
                            tally = tallies.get(filt)
                            if tally is None:
                                tally = tallies[filt] = [0, 0]
                        passed = memo.get(key)
                        if passed is None:
                            passed = filt.may_contain(key)
                        else:
                            tally[0] += 1
                            if passed:
                                tally[1] += 1
                        if not passed:
                            filter_negatives += 1
                            continue
                    table_reads += 1
                    reader = table.reader
                    if (reader is run_reader and run_low < key <= run_high
                            and (run_holds
                                 or repeat_hit(run_key, run_block,
                                               INDEX_LOOKUP_COST_US))):
                        if run_holds:
                            cache_clock.now_us += INDEX_LOOKUP_COST_US
                            for _ in range(run_pages):
                                cache_clock.now_us += CACHE_HIT_COST_US
                            cache_stats.hits += run_pages
                            cache_stats.decoded_hits += 1
                        else:
                            run_holds = True
                        cache_clock.now_us += BLOCK_SEARCH_COST_US
                        entry = run_block.get(key)
                    else:
                        entry, span, block, block_key = reader.lookup(
                            key, cache)
                        run_holds = False
                        if block is not None:
                            # A run starts at this block.
                            run_reader, run_block, run_key = (
                                reader, block, block_key)
                            run_low, run_high = span
                            offset, length = block_key[2], block_key[3]
                            run_pages = ((offset + length - 1) // block_size
                                         - offset // block_size + 1)
                    if entry is not None:
                        value = entry.value
                        break
            if value is not None:
                # on_found and until may touch the cache.
                run_holds = False
                if on_found is not None:
                    rng.gauss_next = spare
                    try:
                        value = on_found(value)
                    finally:
                        spare = rng.gauss_next
            results.append(value)
            elapsed.append(clock.now_us - start)
            if value is not None and until is not None and until(value):
                break
    finally:
        rng.gauss_next = spare
        stats.gets += gets
        stats.memtable_hits += memtable_hits
        stats.filter_checks += filter_checks
        stats.filter_negatives += filter_negatives
        stats.table_reads += table_reads
        for filt, (queries, positives) in tallies.items():
            filt.stats.point_queries += queries
            filt.stats.positives += positives
    return results, elapsed


# ------------------------------------------------------------- range reads

def plan_range_sources(view: ReadView, low: bytes,
                       high: Optional[bytes]) -> List[SSTable]:
    """Charged filter-probe prepass of a range read, in merge order.

    Walks the view's overlapping tables level by level, consults each
    range-capable filter (charging the probe cost and counting stats),
    and returns the tables the read must actually merge.  ``high=None``
    (open-ended cursor) skips the probes and selects every table holding
    a key at or above ``low``.
    """
    stats = view.stats
    version = view.version
    probe = high is not None
    bound = high if probe else max(
        (table.max_key for table in version.all_tables()), default=low)
    active: List[SSTable] = []
    append = active.append
    table_reads = 0
    overlapping = version.overlapping
    for level in range(version.max_levels):
        for table in overlapping(level, low, bound):
            if probe:
                # Point-only filters (plain Bloom) have no range_filter
                # and can never prune a range read.
                filt = table.range_filter
                if filt is not None:
                    stats.filter_checks += 1
                    view.charge_cost(FILTER_QUERY_COST_US)
                    if not filt.may_contain_range(low, high):
                        stats.filter_negatives += 1
                        continue
            table_reads += 1
            append(table)
    stats.table_reads += table_reads
    return active


def _bounded(iterator, high: bytes):
    """Cut a sorted (key, entry) stream at the first key past ``high``."""
    for key, entry in iterator:
        if key > high:
            return
        yield key, entry


def merged_entries(view: ReadView, active: List[SSTable], low: bytes,
                   high: Optional[bytes]) -> Iterator[Tuple[bytes, Entry]]:
    """Newest-wins (key, entry) stream over the view's memtable and
    ``active``.

    The k-way heap merge (:func:`~repro.lsm.iterator.merge_entries`)
    over the memtable and one lazy block-reading source per table, in
    merge order.  Its pull schedule fixes the range read's I/O: one
    block read per source up front, then one refill per element popped.
    ``high=None`` leaves the stream unbounded (the cursor bounds it).
    """
    sources = [view._memtable.items_from(low)]
    sources.extend(table.reader.iterate_from(low, view.cache)
                   for table in active)
    if high is not None:
        sources = [_bounded(source, high) for source in sources]
    return merge_entries(sources)
