"""Point-in-time snapshot views over the MVCC version set.

A :class:`SnapshotView` is the reader's half of DESIGN.md section 12: it
pins the tree's current version, freezes the memtable, and then exposes
the point-read surface of :class:`~repro.lsm.db.LSMTree` over **its own**
simulated clock, RNG streams, page cache and stats.  Two consequences:

* Concurrent writes, flushes and background compactions cannot change
  what the snapshot observes — the pinned version's tables cannot move,
  retire, or unmap under it (each table's mapped region is additionally
  pinned for the snapshot's lifetime).
* Queries against the snapshot cannot perturb the live store's
  determinism channels (clock charges, cost/device RNG draws, cache LRU
  state), and vice versa.  Snapshot ``k`` of a store seeded ``s`` draws
  from ``make_rng(s, "snapshot-k")`` streams, so two runs that take the
  same snapshot of identically-built stores observe **bit-identical**
  simulated time — the property the attack-equivalence suite asserts
  while a writer and background compaction churn the live tree.

The view carries every public read method of the tree (point, batch,
range, and the ground-truth ``*filters_pass`` oracles — a parity test
holds the two surfaces together), all delegating to
:mod:`repro.lsm.read_path` exactly as the tree does, so
``KVService(db=tree.snapshot())`` runs the full attack machinery, point
and range, against a frozen store with no further changes.  Writes and the
``iterator`` cursor still require the live tree.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from repro.common.errors import DBClosedError
from repro.common.rng import make_rng
from repro.lsm import read_path
from repro.lsm.options import COST_JITTER
from repro.storage.clock import SimClock
from repro.storage.page_cache import PageCache


class SnapshotView:
    """A consistent, self-timed, read-only view of one LSM-tree version."""

    def __init__(self, db, snapshot_id: int) -> None:
        from repro.lsm.db import DBStats
        self._db = db
        self.id = snapshot_id
        self.options = db.options
        self.versions = db.versions
        self.version = db.versions.pin()
        #: The memtable frozen at snapshot time (includes tombstones,
        #: exactly like the live memtable's shadowing behaviour).
        self._memtable = db._memtable.copy()
        self.clock = SimClock()
        self.clock.advance_to(db.clock.now_us)
        rng = make_rng(db.options.seed, f"snapshot-{snapshot_id}")
        self._cost_rng = rng.spawn("costs")
        self._device = db.device.reader_view(self.clock, rng.spawn("device"))
        self.cache = PageCache(self._device, db.options.page_cache_bytes)
        self.stats = DBStats()
        # Pin every table's mapping: a region doomed by a later retire or
        # by db.close() must not unmap while this snapshot can read it.
        self._regions = []
        for table in self.version.all_tables():
            region = table.reader.region
            if region is not None and not region.closed:
                region.pin()
                self._regions.append(region)
        self._closed = False

    # -------------------------------------------------------------- lifecycle

    def close(self) -> None:
        """Release the version pin and every region pin (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for region in self._regions:
            region.unpin()
        self._regions = []
        # A snapshot left open across db.close() was already counted as a
        # leak and force-released there; only unpin while the db lives.
        if not self._db._closed:
            self.versions.unpin(self.version)

    def __enter__(self) -> "SnapshotView":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise DBClosedError("operation on closed SnapshotView")
        if self._db._closed:
            raise DBClosedError("snapshot outlived its closed LSMTree")

    def charge_cost(self, base_us: float) -> None:
        """Jittered in-memory charge against the snapshot's own clock."""
        self.clock.charge(
            base_us * max(0.1, self._cost_rng.gauss(1.0, COST_JITTER)))

    # ------------------------------------------------------------------ reads
    # Every read delegates to repro.lsm.read_path with the frozen
    # memtable and the pinned version; see the LSMTree method of the
    # same name for the contract.

    def get(self, key: bytes) -> Optional[bytes]:
        """Point query against the frozen state."""
        self._check_open()
        return read_path.read_points(self, (key,), self.version)[0][0]

    def get_timed(self, key: bytes) -> Tuple[Optional[bytes], float]:
        """``get`` plus its simulated response time in microseconds."""
        with self.clock.measure() as stopwatch:
            value = self.get(key)
        return value, stopwatch.elapsed_us

    def probe_plan(self, keys: Iterable[bytes]
                   ) -> Optional[read_path.ProbePlan]:
        """Pure batched-probe prepass.

        The snapshot already holds the version pin, so the returned
        plan's :meth:`~read_path.ProbePlan.release` is a no-op.
        """
        self._check_open()
        return read_path.probe_plan(self, keys, self.version)

    def getter(self):
        """Point-read closure for per-key callers."""
        self._check_open()
        return read_path.getter(self, self.version)

    def get_many(self, keys: Iterable[bytes],
                 request_us: Optional[float] = None, on_found=None,
                 until=None) -> List[object]:
        """Batch point query, with an optional request envelope."""
        self._check_open()
        return read_path.get_many(self, keys, self.version, request_us,
                                  on_found, until)[0]

    def get_many_timed(self, keys: Iterable[bytes],
                       request_us: Optional[float] = None, on_found=None,
                       until=None) -> List[Tuple[object, float]]:
        """Batch ``get_timed``: per-key (value, simulated elapsed us)."""
        self._check_open()
        values, elapsed = read_path.get_many(self, keys, self.version,
                                             request_us, on_found, until)
        return list(zip(values, elapsed))

    def range_query(self, low: bytes, high: bytes,
                    limit: Optional[int] = None) -> List[Tuple[bytes, bytes]]:
        """Bounded range read against the frozen state, charged against
        the snapshot's own clock, RNG streams and page cache."""
        self._check_open()
        return read_path.range_query(self, self.version,
                                     self._memtable.items_from,
                                     low, high, limit)

    def scan(self, prefix: bytes, limit: Optional[int] = None
             ) -> List[Tuple[bytes, bytes]]:
        """Prefix scan (see ``LSMTree.scan``)."""
        self._check_open()
        return read_path.scan(self, self.version, self._memtable, prefix,
                              limit)

    # ------------------------------------------------------- attack-side APIs

    def filters_pass(self, key: bytes) -> bool:
        """Ground-truth filter decision for ``key``."""
        self._check_open()
        return read_path.filters_pass(self.version, key)

    def filters_pass_many(self, keys: Iterable[bytes]) -> List[bool]:
        """Batch :meth:`filters_pass`."""
        self._check_open()
        return read_path.filters_pass_many(self, keys, self.version)

    def range_filters_pass(self, low: bytes, high: bytes) -> bool:
        """Ground-truth range-filter decision for ``[low, high]``."""
        self._check_open()
        return read_path.range_filters_pass(self.version, low, high)

    # ------------------------------------------------------------------ intro

    def describe(self) -> dict:
        """Summary of the frozen state (reports, debugging)."""
        return {
            "snapshot": self.id,
            "levels": self.version.describe(),
            "memtable_entries": len(self._memtable),
            "total_tables": self.version.total_tables(),
        }
