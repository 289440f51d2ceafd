"""REMIX-style immutable sorted view over one version's live tables.

A range query through the classic path rebuilds a k-way merging iterator
from scratch: every overlapping table contributes a lazy block-reading
source and every step pays a heap pop/push on byte-string tuples.  REMIX
("REMIX: Efficient Range Query for LSM-trees", PAPERS.md) observes that
the *global sort order* of the live tables changes only when the table
set changes — at flush/compaction install — so it can be computed once
per version and shared by every query against that version.

:class:`SortedView` is that artifact, adapted to this tree's MVCC model
(DESIGN.md section 12 and 13):

* a **registry** of source tables (append-only across a version lineage,
  so segment entries stay valid as versions evolve) with one cached
  :class:`TableKeyMap` per table — every key of the table plus the record
  index where each data block starts;
* **segments**: the globally-sorted run of ``(key, source, record)``
  elements, chunked at ~:data:`SEGMENT_TARGET` elements with equal-key
  groups never split across a boundary.  Elements are ordered by
  ``(key, rank)`` where rank is the table's position in the version's
  merge-enumeration order (L0 newest first, then deeper levels), i.e.
  exactly the tie-break of :func:`repro.lsm.iterator.merge_entries`.

Construction is charge-free: key maps decode blocks straight off each
table's mapped region (:meth:`MappedRegion.view`), never through the page
cache, so building or rebuilding a view moves no simulated time and draws
no RNG.  Queries replay the classic engine's *exact* I/O schedule — the
same ``read_decoded`` calls in the same order (see :meth:`SortedView.walk`)
— so the timing side channel the attack measures is bit-identical
whether a version has a view or (unmappable) falls back to that merge.

Incremental maintenance: :meth:`SortedView.evolve` keeps every segment
whose key span no added or removed table's ``[min_key, max_key]`` range
intersects, and rebuilds only the stretches between surviving segments.
An install that invalidates most of the view (a whole-keyspace memtable
flush) returns None instead, deferring to a lazy full rebuild on the next
range read.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.common.errors import CorruptionError, StorageError
from repro.lsm.block import Block
from repro.lsm.memtable import Entry

#: Target elements per segment; actual segments may run long to keep an
#: equal-key group (a cross-table tie) inside one segment.
SEGMENT_TARGET = 4096

#: Minimum fraction of segments that must survive an install for the
#: eager incremental rebuild to be worth it; below this the view is
#: dropped and rebuilt lazily (in full) by the next range read.
REUSE_THRESHOLD = 0.25

#: Sentinel stored on ``Version._view`` when a build failed (a table
#: without a mapped region): suppresses rebuild attempts per version.
UNBUILDABLE = object()


class TableKeyMap:
    """Every key of one table, in order, plus block start offsets.

    ``keys[i]`` is the table's i-th record key; ``block_starts[b]`` is
    the record index of data block ``b``'s first record.  Built once per
    reader (cached as ``reader._key_map``) from the mapped region —
    charge-free — and shared by every view generation the table lives in.
    """

    __slots__ = ("keys", "block_starts")

    def __init__(self, keys: List[bytes], block_starts: List[int]) -> None:
        self.keys = keys
        self.block_starts = block_starts


def key_map_for(reader) -> Optional[TableKeyMap]:
    """The reader's cached key map, building it on first use.

    Returns None when the table has no open mapping (its file could not
    be mapped, or the region closed) — the caller falls back to the
    classic merge path.
    """
    if reader._key_map is not None:
        return reader._key_map
    region = reader.region
    if region is None or region.closed:
        return None
    keys: List[bytes] = []
    block_starts: List[int] = []
    try:
        for _last_key, handle in reader._index:
            block = Block(region.view(handle.offset, handle.length))
            block_starts.append(len(keys))
            key_at = block.key_at
            keys.extend(key_at(i) for i in range(len(block)))
    except (StorageError, CorruptionError):
        return None
    key_map = TableKeyMap(keys, block_starts)
    reader._key_map = key_map
    return key_map


def _merge_slices(runs) -> Tuple[List[bytes], List[int], List[int]]:
    """Merge per-table key slices into one sorted element run.

    ``runs`` is a list of ``(rank, src, base_record, keys)``; the output
    is parallel ``(keys, srcs, recs)`` lists sorted by ``(key, rank)`` —
    the merge-enumeration tie-break.  Pure compute.
    """
    tagged: List[Tuple[bytes, int, int, int]] = []
    extend = tagged.extend
    for rank, src, base, keys in runs:
        extend((key, rank, src, base + i) for i, key in enumerate(keys))
    tagged.sort()
    return ([t[0] for t in tagged], [t[2] for t in tagged],
            [t[3] for t in tagged])


def _chunk_segments(keys: List[bytes], srcs: List[int], recs: List[int]
                    ) -> List[Tuple[List[bytes], List[int], List[int]]]:
    """Cut one merged run into segments without splitting equal keys."""
    out = []
    i, n = 0, len(keys)
    while i < n:
        j = min(i + SEGMENT_TARGET, n)
        while j < n and keys[j] == keys[j - 1]:
            j += 1
        out.append((keys[i:j], srcs[i:j], recs[i:j]))
        i = j
    return out


class SortedView:
    """The per-version sorted view; immutable once published.

    ``registry``/``key_maps`` are shared append-only lists across a
    version lineage (old views' segment ``src`` indices stay valid);
    ``path_to_src`` and the segment lists are per-view.
    """

    __slots__ = ("registry", "key_maps", "path_to_src", "seg_keys",
                 "seg_srcs", "seg_recs", "seg_los", "seg_his",
                 "rebuilt_segments", "_seek_meta")

    def __init__(self, registry: List, key_maps: List[TableKeyMap],
                 path_to_src: Dict[str, int],
                 segments: Sequence[Tuple[List[bytes], List[int], List[int]]],
                 rebuilt_segments: int) -> None:
        self.registry = registry
        self.key_maps = key_maps
        self.path_to_src = path_to_src
        self.seg_keys = [s[0] for s in segments]
        self.seg_srcs = [s[1] for s in segments]
        self.seg_recs = [s[2] for s in segments]
        self.seg_los = [s[0][0] for s in segments]
        self.seg_his = [s[0][-1] for s in segments]
        #: Segments newly constructed by the build that produced this
        #: view (full build: all of them) — feeds the
        #: ``view_rebuild_segments`` stat.
        self.rebuilt_segments = rebuilt_segments
        #: Per-source walk memo, filled lazily by :meth:`walk` (a
        #: wall-clock cache like ``reader._key_map``; concurrent walks
        #: race benignly — identical content, last write wins).
        self._seek_meta: Dict[int, tuple] = {}

    # ------------------------------------------------------------ building

    @classmethod
    def build(cls, version) -> Optional["SortedView"]:
        """Full build for ``version``; None if any table is unmappable."""
        registry: List = []
        key_maps: List[TableKeyMap] = []
        path_to_src: Dict[str, int] = {}
        for table in version.all_tables():
            key_map = key_map_for(table.reader)
            if key_map is None:
                return None
            path_to_src[table.path] = len(registry)
            registry.append(table)
            key_maps.append(key_map)
        srcs = list(range(len(registry)))
        ranks = {src: src for src in srcs}
        segments = _chunk_segments(*_merge_slices(
            cls._gather_runs(registry, key_maps, srcs, ranks, None, None)))
        if not segments:
            # An empty tree has no view to speak of; signal the caller to
            # fall back (walks over zero tables are classic-cheap anyway).
            return None
        return cls(registry, key_maps, path_to_src, segments, len(segments))

    @staticmethod
    def _gather_runs(registry, key_maps, srcs: List[int], ranks: Dict[int, int],
                     lo: Optional[bytes], hi: Optional[bytes]
                     ) -> List[Tuple[int, int, int, List[bytes]]]:
        """Per-table key slices within ``[lo, hi)`` (None = unbounded)."""
        runs = []
        for src in srcs:
            keys = key_maps[src].keys
            start = bisect_left(keys, lo) if lo is not None else 0
            stop = bisect_left(keys, hi) if hi is not None else len(keys)
            if start < stop:
                runs.append((ranks[src], src, start, keys[start:stop]))
        return runs

    # ------------------------------------------------------- incremental

    def evolve(self, version, edit) -> Optional["SortedView"]:
        """Successor view after ``edit``, reusing unaffected segments.

        Returns None when the eager rebuild is not worth it (too little
        reuse, or a new table cannot be mapped) — the caller leaves the
        successor viewless and the next range read rebuilds lazily.
        """
        changed: List[Tuple[bytes, bytes]] = [
            (table.min_key, table.max_key)
            for table in edit.added + edit.removed]

        registry, key_maps = self.registry, self.key_maps
        path_to_src = dict(self.path_to_src)
        live_srcs: List[int] = []
        for table in version.all_tables():
            src = path_to_src.get(table.path)
            if src is None:
                key_map = key_map_for(table.reader)
                if key_map is None:
                    return None
                src = len(registry)
                path_to_src[table.path] = src
                registry.append(table)
                key_maps.append(key_map)
            live_srcs.append(src)
        # Registry hygiene: once dead entries outnumber live ones, fold
        # the lineage into a fresh registry instead of growing forever.
        if len(registry) > 2 * len(live_srcs):
            return SortedView.build(version)

        reusable = [
            all(c_hi < lo or c_lo > hi for c_lo, c_hi in changed)
            for lo, hi in zip(self.seg_los, self.seg_his)
        ]
        total = len(reusable)
        if not total or sum(reusable) < REUSE_THRESHOLD * total:
            return None

        ranks = {src: rank for rank, src in enumerate(live_srcs)}
        segments: List[Tuple[List[bytes], List[int], List[int]]] = []
        rebuilt = 0
        i = 0
        while i < total:
            if reusable[i]:
                segments.append((self.seg_keys[i], self.seg_srcs[i],
                                 self.seg_recs[i]))
                i += 1
                continue
            # A maximal run of invalidated segments: rebuild the stretch
            # strictly between the neighbouring survivors' boundary keys.
            j = i
            while j < total and not reusable[j]:
                j += 1
            lo = (self.seg_his[i - 1] + b"\x00") if i > 0 else None
            hi = self.seg_los[j] if j < total else None
            runs = self._gather_runs(registry, key_maps, live_srcs, ranks,
                                     lo, hi)
            if runs:
                built = _chunk_segments(*_merge_slices(runs))
                segments.extend(built)
                rebuilt += len(built)
            i = j
        if not segments:
            return None
        return SortedView(registry, key_maps, path_to_src, segments, rebuilt)

    # ------------------------------------------------------------ queries

    def walk(self, active_tables, mem_iter, low: bytes,
             high: Optional[bytes], cache) -> Iterator[Tuple[bytes, Entry]]:
        """Merged ``(key, entry)`` stream over the view plus a memtable.

        Replays the classic engine's observable schedule exactly — this
        is the property the equivalence suite pins down, so the contract
        is spelled out:

        * **seek**: one ``read_decoded`` per active table, in merge order,
          for the block holding the table's first key >= ``low`` (the
          classic merge's initial pull per source);
        * **step**: after emitting a table element, the *next* element's
          block is read iff it crosses a block boundary — even when that
          element lies beyond ``high`` (the classic source refills before
          the bound check cuts it);
        * **bound**: with ``high`` set, iteration stops *before* touching
          the first element past it; with ``high=None`` the stream is
          unbounded and the caller (``DBIterator``) cuts it — after one
          extra step charge, exactly like the classic cursor;
        * **ties**: equal keys surface once, newest source first —
          memtable, then tables in merge-enumeration order; tombstones
          surface to the caller (they shadow, and the caller charges for
          them, identically to :func:`merge_entries`).

        All I/O goes through ``cache.read_decoded`` with the same
        arguments the classic path passes, so page faults, decoded-cache
        hits, LRU movement, and every clock charge are bit-identical.
        """
        registry = self.registry
        key_maps = self.key_maps
        path_to_src = self.path_to_src
        read_decoded = cache.read_decoded

        # Seek each active source: decode the block holding its first
        # in-range record, in merge order (classic initial pulls).  The
        # view knows every seek target upfront, so the reads go through
        # the cache's batched entry point — per-request charges, stats
        # and LRU movement identical to one read_decoded call each, in
        # the same order.  Per-source constants (key array, block starts,
        # one prebuilt read request per block) are memoized on the view:
        # they never change for an immutable table, and the seek loop is
        # the hottest non-charged code in a range read.
        meta = self._seek_meta
        meta_get = meta.get
        srcs = []
        cursors: Dict[int, list] = {}
        requests = []
        seek_dests = []
        for table in active_tables:
            src = path_to_src[table.path]
            srcs.append(src)
            m = meta_get(src)
            if m is None:
                reader = registry[src].reader
                key_map = key_maps[src]
                region = reader.region
                path = reader.path
                m = meta[src] = (key_map.keys, key_map.block_starts,
                                 [(path, handle.offset, handle.length,
                                   Block, region)
                                  for _last, handle in reader._index])
            keys, block_starts, reqs = m
            idx = bisect_left(keys, low)
            if idx == len(keys):
                continue  # unreachable for overlap-selected tables
            bi = bisect_right(block_starts, idx) - 1
            requests.append(reqs[bi])
            seek_dests.append((src, bi))
        if requests:
            for (src, bi), block in zip(seek_dests,
                                        cache.read_decoded_many(requests)):
                cursors[src] = [block, bi]
        active = set(srcs)

        next_mem = iter(mem_iter).__next__
        try:
            mem_key, mem_entry = next_mem()
        except StopIteration:
            mem_key = None

        seg_keys, seg_srcs, seg_recs = \
            self.seg_keys, self.seg_srcs, self.seg_recs
        prev_key = None
        si = bisect_left(self.seg_his, low) if active else len(seg_keys)
        ei = bisect_left(seg_keys[si], low) if si < len(seg_keys) else 0
        bounded = high is not None
        while si < len(seg_keys):
            keys, elem_srcs, recs = seg_keys[si], seg_srcs[si], seg_recs[si]
            n = len(keys)
            while ei < n:
                src = elem_srcs[ei]
                if src not in active:
                    ei += 1
                    continue
                key = keys[ei]
                if bounded and key > high:
                    si = len(seg_keys)  # all later elements are larger
                    break
                while mem_key is not None and mem_key <= key:
                    if mem_key != prev_key:
                        prev_key = mem_key
                        yield mem_key, mem_entry
                    try:
                        mem_key, mem_entry = next_mem()
                    except StopIteration:
                        mem_key = None
                cursor = cursors[src]
                src_keys, block_starts, reqs = meta[src]
                rec = recs[ei]
                entry = cursor[0].entry_at(rec - block_starts[cursor[1]])
                # Classic refill: pull the source's next element now, and
                # read its block if the pull crosses a boundary.
                nxt = rec + 1
                if nxt < len(src_keys):
                    bi = cursor[1] + 1
                    if bi < len(block_starts) and nxt >= block_starts[bi]:
                        path, offset, length, _, region = reqs[bi]
                        cursor[0] = read_decoded(path, offset, length,
                                                 Block, region=region)
                        cursor[1] = bi
                if key != prev_key:
                    prev_key = key
                    yield key, entry
                ei += 1
            else:
                si += 1
                ei = 0
                continue
            break
        # Tables exhausted (or bound hit): drain the memtable remainder.
        while mem_key is not None:
            if bounded and mem_key > high:
                break
            if mem_key != prev_key:
                prev_key = mem_key
                yield mem_key, mem_entry
            try:
                mem_key, mem_entry = next_mem()
            except StopIteration:
                mem_key = None


def ensure_view(version, stats=None) -> Optional[SortedView]:
    """The version's view, building it lazily on first use.

    A failed build is remembered (:data:`UNBUILDABLE`) so unmappable
    versions do not retry on every query.  The benign race on
    ``version._view`` mirrors the ``_max_keys`` memo: concurrent builders
    compute identical content and the last write wins.  ``stats`` (a
    ``DBStats``) receives the rebuild accounting when a build happens.
    """
    view = version._view
    if view is UNBUILDABLE:
        return None
    if view is None:
        view = SortedView.build(version)
        version._view = view if view is not None else UNBUILDABLE
        if view is not None and stats is not None:
            stats.view_rebuild_segments += view.rebuilt_segments
    return view
