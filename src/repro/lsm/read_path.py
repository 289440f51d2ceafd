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
call: ``mem_items_from`` for range reads, and ``version`` when it
already holds a pin (a snapshot, a range read); with ``version=None``
point reads pin ``ctx.versions`` themselves.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

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
from repro.lsm.sorted_view import ensure_view
from repro.lsm.sstable import SSTable
from repro.lsm.version import Version, VersionSet

class ProbePlan:
    """Memoized pure filter verdicts for one batch of point queries.

    Built by the :func:`probe_plan` prepass, which batches the probes
    per filter (vectorized Bloom hashing, shared-prefix LOUDS traversal)
    *without* touching stats, clock, or RNG.  The replay — the ordinary
    per-key search loop of :func:`getter` — then substitutes a dictionary
    lookup for each scalar ``may_contain`` call and records stats only
    for verdicts it actually consumes, so simulated time, verdicts and
    every counter are bit-identical with or without a plan.  A missing
    entry (``None``) means "compute scalar", never "False".

    The plan **pins** the version it was computed against: concurrent
    flushes and background compactions install new versions without
    disturbing the batch, and the pinned version's tables cannot retire
    under it.  Batch drivers call :meth:`release` (idempotent) when the
    batch is done; un-released plans are reclaimed at ``db.close()`` and
    counted as leaks.
    """

    __slots__ = ("_verdicts", "candidates", "version", "_versions")

    def __init__(self, version: Version,
                 versions: Optional[VersionSet] = None) -> None:
        self._verdicts: Dict[int, Dict[bytes, bool]] = {}
        #: key -> tuple of candidate SSTables, memoized by the prepass so
        #: the replay need not repeat the version walk.  Valid for the
        #: batch only: the pinned version cannot change under the batch.
        self.candidates: Dict[bytes, tuple] = {}
        #: the pinned version the prepass walked.
        self.version = version
        #: where :meth:`release` returns the pin; None when the plan's
        #: owner (a snapshot) holds the pin itself.
        self._versions = versions

    def release(self) -> None:
        """Unpin the plan's version (idempotent)."""
        versions, self._versions = self._versions, None
        if versions is not None:
            versions.unpin(self.version)

    def add(self, filt, keys: List[bytes], verdicts: List[bool]) -> None:
        """Memoize ``filt``'s pure verdicts for ``keys``."""
        table = self._verdicts.setdefault(id(filt), {})
        for key, verdict in zip(keys, verdicts):
            table[key] = verdict

    def lookup(self, filt, key: bytes) -> Optional[bool]:
        """Memoized verdict, or None when the prepass did not cover it."""
        table = self._verdicts.get(id(filt))
        if table is None:
            return None
        return table.get(key)


# ------------------------------------------------------------- point reads

def probe_plan(ctx, keys: Iterable[bytes], version: Optional[Version] = None,
               include_memtable_hits: bool = False) -> Optional[ProbePlan]:
    """Pure batched-probe prepass for a batch of point queries.

    Collects, per filter on the batch's search paths, the unique keys
    the search loop could probe it with, and computes their verdicts
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
    versions = ctx.versions if version is None else None
    if versions is not None:
        version = versions.pin()
    plan = ProbePlan(version, versions)
    groups: Dict[int, Tuple[object, List[bytes]]] = {}
    try:
        # One prepass is short enough to hoist the memtable lookup.
        memtable_get = (None if include_memtable_hits
                        else ctx._memtable.get)
        candidates_for_key = version.candidates_for_key
        key_candidates = plan.candidates
        for key in keys:
            if key in key_candidates:
                continue
            if memtable_get is not None and memtable_get(key) is not None:
                continue
            tables = tuple(candidates_for_key(key))
            key_candidates[key] = tables
            for table in tables:
                filt = table.filter
                if filt is None:
                    continue
                entry = groups.get(id(filt))
                if entry is None:
                    groups[id(filt)] = entry = (filt, [])
                entry[1].append(key)
        for filt, filt_keys in groups.values():
            plan.add(filt, filt_keys, filt.probe_many(filt_keys))
    except BaseException:
        plan.release()
        raise
    if not groups:
        plan.release()
        return None
    return plan


def getter(ctx, version: Optional[Version] = None,
           plan: Optional[ProbePlan] = None
           ) -> Callable[[bytes], Optional[bytes]]:
    """The per-key point-search loop, as a ``key -> value`` closure.

    Searches top-down — memtable, L0 newest-first, then one table per
    deeper level — consulting each table's filter before reading any
    data block, and charges the simulated clock for every step: the
    response time is the attacker-visible signal.  Everything constant
    across keys is hoisted into the closure (the attack loops issue
    10^5-10^6 gets per experiment); the jittered charges are computed
    exactly as ``ctx.charge_cost`` computes them, from the same RNG
    stream.

    With a :class:`ProbePlan`, filter verdicts come from the prepass's
    memo (falling back to the scalar probe for uncovered keys) and the
    consumed verdicts are recorded into the filter's stats exactly as
    ``may_contain`` would have.  The table walk runs against the plan's
    pinned version, else the owner-pinned ``version``, else a version
    pinned from ``ctx.versions`` per call — installs retire replaced
    tables immediately, so an unpinned walk could race one; the pin is
    charge-free.
    """
    stats = ctx.stats
    cache = ctx.cache
    versions = ctx.versions
    fixed_version = plan.version if plan is not None else version
    base_cost = GET_BASE_COST_US + MEMTABLE_LOOKUP_COST_US
    gauss = ctx._cost_rng.gauss
    clock_charge = ctx.clock.charge
    plan_lookup = plan.lookup if plan is not None else None
    plan_candidates = (plan.candidates.get if plan is not None
                       else lambda _key: None)

    def get_one(key: bytes) -> Optional[bytes]:
        stats.gets += 1
        clock_charge(base_cost * max(0.1, gauss(1.0, COST_JITTER)))
        entry = ctx._memtable.get(key)
        if entry is not None:
            stats.memtable_hits += 1
            return entry.value
        pinned = None
        tables = plan_candidates(key)
        if tables is None:
            search = fixed_version
            if search is None:
                search = pinned = versions.pin()
            tables = search.candidates_for_key(key)
        try:
            for table in tables:
                filt = table.filter
                if filt is not None:
                    stats.filter_checks += 1
                    clock_charge(FILTER_QUERY_COST_US
                                 * max(0.1, gauss(1.0, COST_JITTER)))
                    passed = (plan_lookup(filt, key)
                              if plan_lookup is not None else None)
                    if passed is None:
                        passed = filt.may_contain(key)
                    else:
                        filt.stats.record_point(passed)
                    if not passed:
                        stats.filter_negatives += 1
                        continue
                stats.table_reads += 1
                entry = table.reader.get(key, cache)
                if entry is not None:
                    return entry.value
            return None
        finally:
            if pinned is not None:
                versions.unpin(pinned)

    return get_one


def get_many(ctx, keys: Iterable[bytes], version: Optional[Version] = None,
             timed: bool = False) -> List:
    """Batch point query: prepass, then the search loop replays per key.

    Identical simulated-time behaviour to the equivalent ``get`` loop —
    the prepass is pure and the replay preserves every charge, draw and
    counter.  ``timed`` pairs each value with its simulated elapsed us.
    """
    keys = list(keys)
    plan = probe_plan(ctx, keys, version)
    try:
        get_one = getter(ctx, version, plan)
        if not timed:
            return [get_one(key) for key in keys]
        clock = ctx.clock
        out: List[Tuple[Optional[bytes], float]] = []
        append = out.append
        for key in keys:
            start = clock.now_us
            value = get_one(key)
            append((value, clock.now_us - start))
        return out
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
        plan_lookup = plan.lookup
        out: List[bool] = []
        for key in keys:
            passed_any = False
            for table in plan.candidates[key]:
                filt = table.filter
                if filt is None:
                    passed_any = True
                    break
                passed = plan_lookup(filt, key)
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
                       high: Optional[bytes],
                       bound: Optional[bytes] = None) -> List[SSTable]:
    """Charged filter-probe prepass of a range read, in merge order.

    Walks ``version``'s overlapping tables level by level, consults each
    range-capable filter (charging the probe cost and counting stats),
    and returns the tables the read must actually merge.  Shared by the
    sorted-view walk and the fallback merge, so the probe side channel
    cannot depend on which one runs.  ``high=None`` (open-ended cursor)
    skips the probes and selects tables by ``bound`` instead.
    """
    stats = ctx.stats
    if bound is None:
        bound = high
    probe = high is not None
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


def merged_entries(ctx, version: Version, active: List[SSTable],
                   mem_items, low: bytes, high: Optional[bytes]
                   ) -> Iterator[Tuple[bytes, Entry]]:
    """Newest-wins (key, entry) stream over the memtable and ``active``.

    Walks the version's sorted view (:mod:`repro.lsm.sorted_view`),
    built lazily on first use — charge-free, key maps decode straight
    off the tables' mapped regions.  A version that cannot be mapped has
    no view, permanently, and gets the classic per-query heap merge; the
    walk replays that merge's exact read/charge script, so results,
    stats and simulated time do not depend on which one ran.
    ``high=None`` leaves the stream unbounded (the cursor bounds it).
    """
    view = ensure_view(version, ctx.stats)
    if view is not None:
        ctx.stats.sorted_view_seeks += 1
        return view.walk(active, mem_items, low, high, ctx.cache)
    sources = [mem_items]
    sources.extend(table.reader.iterate_from(low, ctx.cache)
                   for table in active)
    if high is not None:
        sources = [_bounded(source, high) for source in sources]
    return merge_entries(sources)


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
    merged = merged_entries(ctx, version, active, mem_items_from(low),
                            low, high)
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
