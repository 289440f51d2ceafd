"""Point-in-time snapshot views over the MVCC version set.

A :class:`SnapshotView` is the reader's half of DESIGN.md section 12: a
long-lived :class:`~repro.lsm.read_path.ReadView` over a frozen copy of
the memtable and the version pinned with it, charged to **its own**
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

The class adds only a lifecycle: every read — point, batch, range, the
``iterator`` cursor and the ground-truth ``*filters_pass`` oracles — is
the view's, exactly the tree's read surface (a parity test holds the two
together), so ``KVService(db=tree.snapshot())`` runs the full attack
machinery, point and range, against a frozen store.  Writes require the
live tree.
"""

from __future__ import annotations

from repro.common.rng import make_rng
from repro.lsm.read_path import ReadView
from repro.storage.clock import SimClock
from repro.storage.page_cache import PageCache


class SnapshotView(ReadView):
    """A consistent, self-timed, read-only view of one LSM-tree version."""

    def __init__(self, db, snapshot_id: int) -> None:
        from repro.lsm.db import DBStats
        # The tree's live view takes the memtable, then the pin, as every
        # read of the tree does; its pin becomes the snapshot's.
        live = db._read_view()
        clock = SimClock()
        clock.advance_to(db.clock.now_us)
        rng = make_rng(db.options.seed, f"snapshot-{snapshot_id}")
        cost_rng = rng.spawn("costs")
        device = db.device.reader_view(clock, rng.spawn("device"))
        # The memtable is frozen by copy, tombstones included (they
        # shadow exactly as in the live memtable).
        super().__init__(db, live._memtable.copy(), live.version, clock,
                         PageCache(device, db.options.page_cache_bytes),
                         DBStats(), cost_rng)
        self.id = snapshot_id
        self.options = db.options
        # Pin every table's mapping: a region doomed by a later retire or
        # by db.close() must not unmap while this snapshot can read it.
        self._regions = []
        for table in self.version.all_tables():
            region = table.reader.region
            if region is not None and not region.closed:
                region.pin()
                self._regions.append(region)

    # -------------------------------------------------------------- lifecycle

    def close(self) -> None:
        """Release every region pin and the version pin (idempotent)."""
        if self._closed:
            return
        for region in self._regions:
            region.unpin()
        self._regions = []
        super().close()

    def __enter__(self) -> "SnapshotView":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------ intro

    def describe(self) -> dict:
        """Summary of the frozen state (reports, debugging)."""
        return {
            "snapshot": self.id,
            "levels": self.version.describe(),
            "memtable_entries": len(self._memtable),
            "total_tables": self.version.total_tables(),
        }
