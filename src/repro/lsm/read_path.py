"""The one read path: point and range reads against a read context.

:class:`~repro.lsm.db.LSMTree` and
:class:`~repro.lsm.snapshot.SnapshotView` own state — memtable, version
pins, clock, RNG streams, cache — and delegate every read here, so the
side channel (filter verdicts, charges, stats) cannot depend on which of
them serves a query.

The **read context** ``ctx`` is duck-typed: ``stats`` (a ``DBStats``),
``clock``, ``cache``, ``_cost_rng``, ``charge_cost``, ``versions`` (the
:class:`~repro.lsm.version.VersionSet` reads pin) and
``_memtable`` (a :class:`~repro.lsm.memtable.MemTable`: the live one,
which a flush swaps out — so it is re-read off ``ctx`` per key, never
hoisted — or a snapshot's frozen copy).  The owner supplies the rest per
call: the memtable (or its ``items_from``) for range reads, read before
the pin, and ``version`` when it already holds a pin (a snapshot, a
range read); with ``version=None`` point reads pin ``ctx.versions``
themselves.

Every point read — ``get``, a batch, a replay of a probe plan — is one
search loop, :func:`read_points`, over a batch of keys.
"""

from __future__ import annotations

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

from repro.common.rng import gauss_pair
from repro.filters.base import Filter
from repro.lsm.iterator import merge_entries
from repro.lsm.memtable import Entry
from repro.lsm.options import (
    COST_JITTER,
    FILTER_QUERY_COST_US,
    GET_BASE_COST_US,
    MEMTABLE_LOOKUP_COST_US,
    RANGE_NEXT_COST_US,
    RANGE_SEEK_COST_US,
)
from repro.lsm.sstable import SSTable
from repro.lsm.version import Version, VersionSet

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

    The plan **pins** the version it was computed against: concurrent
    flushes and background compactions install new versions without
    disturbing the batch, and the pinned version's tables cannot retire
    under it.  Batch drivers call :meth:`release` (idempotent) when the
    batch is done; un-released plans are reclaimed at ``db.close()`` and
    counted as leaks.
    """

    __slots__ = ("verdicts", "candidates", "version", "memtable",
                 "_versions")

    def __init__(self, version: Version, memtable,
                 versions: Optional[VersionSet] = None) -> None:
        #: filter -> {key: verdict}, for every (filter, key) pair on the
        #: batch's search paths.
        self.verdicts: Dict[Filter, Dict[bytes, bool]] = {}
        #: key -> tuple of candidate SSTables, memoized by the prepass so
        #: the replay need not repeat the version walk.  Valid for the
        #: batch only: the pinned version cannot change under the batch.
        self.candidates: Dict[bytes, Tuple[SSTable, ...]] = {}
        #: the pinned version the prepass walked.
        self.version = version
        #: the memtable read *before* the pin: while the owner still
        #: holds it, ``version`` has every record the memtable lacks.
        self.memtable = memtable
        #: where :meth:`release` returns the pin; None when the plan's
        #: owner (a snapshot) holds the pin itself.
        self._versions = versions

    def release(self) -> None:
        """Unpin the plan's version (idempotent)."""
        versions, self._versions = self._versions, None
        if versions is not None:
            versions.unpin(self.version)


# ------------------------------------------------------------- point reads

def probe_plan(ctx, keys: Iterable[bytes], version: Optional[Version] = None,
               include_memtable_hits: bool = False) -> Optional[ProbePlan]:
    """Pure batched-probe prepass for a batch of point queries.

    Walks the batch's candidate tables in one pass
    (:meth:`Version.candidates_for_keys`), collects per filter the unique
    keys the search loop could probe it with, and computes their verdicts
    through each filter's batch probe (:meth:`Filter.probe_many`).
    Touches no stats, clock, or RNG: the verdicts are memoized for the
    replay to consume in the scalar loop's own order.  Keys currently in
    the memtable are skipped (their gets never reach a filter) unless
    ``include_memtable_hits`` — :func:`filters_pass_many` probes filters
    regardless of the memtable.

    With ``version=None`` the prepass pins ``ctx.versions`` and the plan
    owns that pin (released here when no plan is returned, including on
    any exception — a raising filter must not leak it); an owner-pinned
    ``version`` yields a plan whose :meth:`ProbePlan.release` is a no-op.

    Returns None when nothing needs probing.
    """
    memtable = ctx._memtable  # before the pin: see ProbePlan.memtable
    versions = ctx.versions if version is None else None
    if versions is not None:
        version = versions.pin()
    plan = ProbePlan(version, memtable, versions)
    groups: Dict[Filter, List[bytes]] = {}
    try:
        todo = list(dict.fromkeys(keys))
        if not include_memtable_hits and len(memtable):
            in_memtable = memtable.get
            todo = [key for key in todo if in_memtable(key) is None]
        tables_of = version.candidates_for_keys(todo)
        plan.candidates = dict(zip(todo, tables_of))
        for key, tables in zip(todo, tables_of):
            for table in tables:
                filt = table.filter
                if filt is not None:
                    group = groups.get(filt)
                    if group is None:
                        groups[filt] = [key]
                    else:
                        group.append(key)
        for filt, filt_keys in groups.items():
            plan.verdicts[filt] = dict(zip(filt_keys,
                                           filt.probe_many(filt_keys)))
    except BaseException:
        plan.release()
        raise
    if not groups:
        plan.release()
        return None
    return plan


def read_points(ctx, keys: Sequence[bytes],
                version: Optional[Version] = None,
                plan: Optional[ProbePlan] = None,
                request_us: Optional[float] = None,
                on_found: Optional[Callable[[bytes], object]] = None,
                until: Optional[Callable[[object], bool]] = None
                ) -> Tuple[List[object], List[float]]:
    """The point-search loop, over a batch of keys in order.

    Per key: the caller's request charge (``request_us``, when a service
    issues the batch), the get charge, the memtable, then the candidate
    tables top-down — L0 newest-first, one table per deeper level — each
    table's filter consulted (and charged) before its data block is
    read.  The response time is the attacker-visible signal, so every
    charge is applied to ``ctx.clock`` in the scalar order, jittered by
    a draw from ``ctx._cost_rng`` exactly as ``ctx.charge_cost`` would
    draw it: the draws are :func:`~repro.common.rng.gauss_pair`, with
    the generator's ``gauss_next`` held in a local and written back
    before anything else can draw (``on_found``, the end of the batch).
    Counters accumulate in locals and reach ``ctx.stats`` and the
    filters' stats in ``finally``.

    ``on_found`` runs on each found value (a service's ACL check; it may
    charge through ``ctx.charge_cost``) and its result replaces the
    value.  With ``until``, the batch ends after the first found key
    whose result satisfies it: later keys are never issued.

    Tables come from the plan (verdicts replayed, consumed ones counted
    as ``may_contain`` would count them), else from the owner-pinned
    ``version``, else from ``ctx.versions`` pinned at the batch's first
    memtable miss — after reading the memtable, and again whenever a
    flush has swapped the memtable since, so a record leaving the
    memtable is always in the version searched.

    Returns ``(results, elapsed_us)`` for the keys issued: each key's
    value (or ``on_found``'s result), None when absent, and the
    simulated µs from before its first charge to after ``on_found``.
    """
    stats = ctx.stats
    clock = ctx.clock
    cache = ctx.cache
    versions = ctx.versions
    rng = ctx._cost_rng.generator
    uniform = rng.random
    base_cost = GET_BASE_COST_US + MEMTABLE_LOOKUP_COST_US
    if plan is not None:
        search, searched = plan.version, plan.memtable
        known, verdicts = plan.candidates, plan.verdicts
    else:
        search, known, verdicts = version, _NOTHING, _NOTHING
        searched = ctx._memtable if version is not None else None
    pinned = None
    results: List[object] = []
    elapsed: List[float] = []
    gets = memtable_hits = filter_checks = filter_negatives = 0
    table_reads = 0
    #: filter -> [queries, positives] of the plan verdicts consumed.
    tallies: Dict[Filter, List[int]] = {}
    last_filter = memo = tally = None
    spare = rng.gauss_next
    try:
        for key in keys:
            start = clock.now_us
            if request_us is not None:
                if spare is None:
                    z, spare = gauss_pair(uniform)
                else:
                    z, spare = spare, None
                clock.now_us += request_us * max(0.1, 1.0 + z * COST_JITTER)
            gets += 1
            if spare is None:
                z, spare = gauss_pair(uniform)
            else:
                z, spare = spare, None
            clock.now_us += base_cost * max(0.1, 1.0 + z * COST_JITTER)
            memtable = ctx._memtable
            entry = memtable.get(key)
            if entry is not None:
                memtable_hits += 1
                value = entry.value
            else:
                if memtable is not searched:
                    if pinned is not None:
                        versions.unpin(pinned)
                        pinned = None
                    search = pinned = versions.pin()
                    searched, known = memtable, _NOTHING
                tables = known.get(key)
                if tables is None:
                    tables = search.candidates_for_key(key)
                value = None
                for table in tables:
                    filt = table.filter
                    if filt is not None:
                        filter_checks += 1
                        if spare is None:
                            z, spare = gauss_pair(uniform)
                        else:
                            z, spare = spare, None
                        clock.now_us += (FILTER_QUERY_COST_US
                                         * max(0.1, 1.0 + z * COST_JITTER))
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
                    entry = table.reader.get(key, cache)
                    if entry is not None:
                        value = entry.value
                        break
            if value is not None and on_found is not None:
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
        if pinned is not None:
            versions.unpin(pinned)
        stats.gets += gets
        stats.memtable_hits += memtable_hits
        stats.filter_checks += filter_checks
        stats.filter_negatives += filter_negatives
        stats.table_reads += table_reads
        for filt, (queries, positives) in tallies.items():
            filt.stats.point_queries += queries
            filt.stats.positives += positives
    return results, elapsed


def getter(ctx, version: Optional[Version] = None
           ) -> Callable[[bytes], Optional[bytes]]:
    """:func:`read_points` over one key, as a ``key -> value`` closure."""
    def get_one(key: bytes) -> Optional[bytes]:
        return read_points(ctx, (key,), version)[0][0]

    return get_one


def get_many(ctx, keys: Iterable[bytes], version: Optional[Version] = None,
             request_us: Optional[float] = None,
             on_found: Optional[Callable[[bytes], object]] = None,
             until: Optional[Callable[[object], bool]] = None
             ) -> Tuple[List[object], List[float]]:
    """Batch point query: the prepass, then :func:`read_points` replays it.

    Identical simulated-time behaviour to the equivalent ``get`` loop —
    the prepass is pure and the replay preserves every charge, draw and
    counter.  The plan's pin is released however the batch ends.
    """
    keys = list(keys)
    plan = probe_plan(ctx, keys, version)
    try:
        return read_points(ctx, keys, version, plan, request_us, on_found,
                           until)
    finally:
        if plan is not None:
            plan.release()


def filters_pass(version: Version, key: bytes) -> bool:
    """Whether a ``get`` for ``key`` would read at least one table.

    The "internal debugging counter" oracle of paper section 10.2.2:
    some filter on the search path passes, or some candidate table has
    no filter.  Charges no simulated time and performs no I/O.
    """
    for table in version.candidates_for_key(key):
        if table.filter is None or table.filter.may_contain(key):
            return True
    return False


def filters_pass_many(ctx, keys: Iterable[bytes],
                      version: Optional[Version] = None) -> List[bool]:
    """Batch :func:`filters_pass`: one batched probe per filter.

    Exactly ``[filters_pass(version, k) for k in keys]`` — same
    verdicts, same short-circuit filter-stats accounting (a key's later
    filters are not probed, and not recorded, once one passes).  Unlike
    the get path this ignores the memtable, so the prepass covers every
    key.
    """
    keys = list(keys)
    plan = probe_plan(ctx, keys, version, include_memtable_hits=True)
    if plan is None:
        # No candidate table carries a filter: any candidate passes.
        search = version if version is not None else ctx.versions.current
        return [filters_pass(search, key) for key in keys]
    try:
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
    finally:
        plan.release()


# ------------------------------------------------------------- range reads

def range_filters_pass(version: Version, low: bytes, high: bytes) -> bool:
    """Whether a ``range_query(low, high)`` would read at least one table.

    The range-query analogue of :func:`filters_pass`, used by the
    idealized range-descent attack (the range-query attack the paper's
    section 11 anticipates).
    """
    if low > high:
        return False
    for level in range(version.max_levels):
        for table in version.overlapping(level, low, high):
            filt = table.range_filter
            if filt is None or filt.may_contain_range(low, high):
                return True
    return False


def plan_range_sources(ctx, version: Version, low: bytes,
                       high: Optional[bytes]) -> List[SSTable]:
    """Charged filter-probe prepass of a range read, in merge order.

    Walks ``version``'s overlapping tables level by level, consults each
    range-capable filter (charging the probe cost and counting stats),
    and returns the tables the read must actually merge.  ``high=None``
    (open-ended cursor) skips the probes and selects every table holding
    a key at or above ``low``.
    """
    stats = ctx.stats
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
                    ctx.charge_cost(FILTER_QUERY_COST_US)
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


def merged_entries(ctx, active: List[SSTable], mem_items, low: bytes,
                   high: Optional[bytes]) -> Iterator[Tuple[bytes, Entry]]:
    """Newest-wins (key, entry) stream over the memtable and ``active``.

    The k-way heap merge (:func:`~repro.lsm.iterator.merge_entries`)
    over the memtable and one lazy block-reading source per table, in
    merge order.  Its pull schedule fixes the range read's I/O: one
    block read per source up front, then one refill per element popped.
    ``high=None`` leaves the stream unbounded (the cursor bounds it).
    """
    sources = [mem_items]
    sources.extend(table.reader.iterate_from(low, ctx.cache)
                   for table in active)
    if high is not None:
        sources = [_bounded(source, high) for source in sources]
    return merge_entries(sources)


def scan(ctx, version: Version, memtable, prefix: bytes,
         limit: Optional[int]) -> List[Tuple[bytes, bytes]]:
    """Prefix scan: every pair whose key extends ``prefix``, in order.

    A bounded :func:`range_query`, so range filters prune it like any
    other.  The bound is the prefix's successor, the least key above
    every extension (``b"ab\\xff"`` -> ``b"ac"``), and dropped from the
    answer if present.  A prefix without one (empty, or all ``0xff``)
    reads up to the largest key ``version`` or ``memtable`` holds.
    """
    stem = prefix.rstrip(b"\xff")
    if stem:
        high = stem[:-1] + bytes((stem[-1] + 1,))
    else:
        high = max([table.max_key for table in version.all_tables()]
                   + [memtable.max_key() or prefix])
    out = range_query(ctx, version, memtable.items_from, prefix, high, limit)
    if out and not out[-1][0].startswith(prefix):
        out.pop()
    return out


def range_query(ctx, version: Version, mem_items_from, low: bytes,
                high: bytes, limit: Optional[int]
                ) -> List[Tuple[bytes, bytes]]:
    """Bounded range read against a pinned ``version``.

    All pairs with ``low <= key <= high`` in key order, using each
    table's range filter (when available) to skip tables whose filter
    proves the intersection empty — the optimization that motivated
    range filters (paper section 2.2).  The consumption loop hoists the
    per-step charge exactly as ``ctx.charge_cost`` computes it.
    """
    if low > high:
        return []
    ctx.stats.range_queries += 1
    ctx.charge_cost(RANGE_SEEK_COST_US)
    active = plan_range_sources(ctx, version, low, high)
    merged = merged_entries(ctx, active, mem_items_from(low), low, high)
    gauss = ctx._cost_rng.gauss
    clock_charge = ctx.clock.charge
    out: List[Tuple[bytes, bytes]] = []
    append = out.append
    for key, entry in merged:
        clock_charge(RANGE_NEXT_COST_US * max(0.1, gauss(1.0, COST_JITTER)))
        if entry.is_tombstone:
            continue
        append((key, entry.value))
        if limit is not None and len(out) >= limit:
            break
    return out
