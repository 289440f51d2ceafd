"""Ingest bench: bulk_load / compact_all / put_many wall-clock.

An engineering bench beyond the paper's tables: Fig. 6 rebuilds stores of
1M-50M keys for every configuration, so dataset construction gates every
sweep the way ``get`` wall-clock did before the read-path overhaul.  The
bench reports, on one machine in one run:

* ``bulk_load`` of a large pre-sorted dataset;
* a forced ``compact_all`` over a many-table store;
* ``put_many`` group commit against the equivalent ``put`` loop.

Alongside the timings it digests the complete device state of the
``bulk_load`` and ``compact_all`` runs: the table writer is a pure
function of its inputs (DESIGN.md section 9), so the digests are a
fingerprint any later run must reproduce.  (Equivalence with the
streaming builders is a tier-1 test against ``tests/reference``, not a
bench arm.)
"""

from __future__ import annotations

import hashlib
import time
from typing import Dict, List, Tuple

from repro.bench.report import ExperimentReport
from repro.common.rng import make_rng
from repro.filters.bloom import BloomFilterBuilder
from repro.lsm.db import LSMTree
from repro.lsm.options import LSMOptions
from repro.storage.clock import SimClock
from repro.storage.device import StorageDevice

PAPER_CLAIM = ("(engineering) Fig. 6 sweeps rebuild multi-million-key "
               "stores per configuration; ingest wall-clock gates them")


def _dataset(num_keys: int, seed: int) -> List[Tuple[bytes, bytes]]:
    rng = make_rng(seed, "ingest-bench")
    keys = sorted({rng.random_bytes(8) for _ in range(num_keys)})
    return [(key, key * 3) for key in keys]


def _fresh(**overrides) -> Tuple[LSMTree, StorageDevice]:
    clock = SimClock()
    device = StorageDevice(clock)
    options = LSMOptions(filter_builder=BloomFilterBuilder(10), **overrides)
    return LSMTree(options=options, clock=clock, device=device), device


def _digest(device: StorageDevice) -> str:
    state = hashlib.sha256()
    for path in device.list_files():
        state.update(path.encode())
        state.update(device._files[path])
    return state.hexdigest()


def _row(phase: str, db: LSMTree, keys: int, seconds: float
         ) -> Dict[str, object]:
    return {"phase": phase, "seconds": seconds,
            "keys_per_second": keys / seconds, "sim_us": db.clock.now_us}


def _bench_bulk_load(items, rows) -> str:
    db, device = _fresh()
    started = time.perf_counter()
    db.bulk_load(items)
    rows.append(_row("bulk_load", db, len(items),
                     time.perf_counter() - started))
    return _digest(device)


def _bench_compact(items, rows) -> str:
    # A high L0 trigger parks every flush in L0, so the timed
    # compact_all performs the entire merge in one forced pass.
    db, device = _fresh(memtable_size_bytes=64 * 1024,
                        l0_compaction_trigger=10_000)
    for start in range(0, len(items), 512):
        db.put_many(items[start:start + 512])
    started = time.perf_counter()
    db.compact_all()
    rows.append(_row("compact_all", db, len(items),
                     time.perf_counter() - started))
    return _digest(device)


def _bench_put_many(items, rows) -> float:
    db_loop, _ = _fresh()
    started = time.perf_counter()
    for key, value in items:
        db_loop.put(key, value)
    loop_s = time.perf_counter() - started

    db_batch, _ = _fresh()
    started = time.perf_counter()
    for start in range(0, len(items), 256):
        db_batch.put_many(items[start:start + 256])
    batch_s = time.perf_counter() - started

    rows.append(_row("put loop", db_loop, len(items), loop_s))
    rows.append(_row("put_many", db_batch, len(items), batch_s))
    return loop_s / batch_s


def run(num_keys: int = 220_000, compact_keys: int = 60_000,
        batch_keys: int = 40_000, seed: int = 9) -> ExperimentReport:
    """Time the three ingest paths, digest the two table-writing ones."""
    bulk_items = _dataset(num_keys, seed)
    compact_items = _dataset(compact_keys, seed + 1)
    batch_items = _dataset(batch_keys, seed + 2)

    rows: List[Dict[str, object]] = []
    bulk_digest = _bench_bulk_load(bulk_items, rows)
    compact_digest = _bench_compact(compact_items, rows)
    speedup = _bench_put_many(batch_items, rows)

    return ExperimentReport(
        experiment="BENCH_ingest",
        title="Ingest: wall-clock of bulk_load, compact_all and put_many",
        paper_claim=PAPER_CLAIM,
        scale_note=(f"bulk_load {len(bulk_items):,} keys, compact_all over "
                    f"{len(compact_items):,} keys, put_many "
                    f"{len(batch_items):,} keys"),
        rows=rows,
        summary={
            "put_many_speedup_vs_loop": speedup,
            "bulk_digest": bulk_digest,
            "compact_digest": compact_digest,
        },
    )
