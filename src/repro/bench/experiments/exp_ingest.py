"""Ingest engine bench: bulk_load / compact_all / put_many wall-clock.

An engineering bench beyond the paper's tables: Fig. 6 rebuilds stores of
1M-50M keys for every configuration, so dataset construction gates every
sweep the way ``get`` wall-clock did before the read-path overhaul.  The
bench runs the same ingest per worker count and reports, on one machine
in one run:

* ``bulk_load`` of a large pre-sorted dataset at ``build_threads`` 1, 2
  and 4;
* a forced ``compact_all`` over a many-table store at the same counts;
* ``put_many`` group commit against the equivalent ``put`` loop.

Alongside the timings it digests the complete device state of every run:
the engine's determinism contract (DESIGN.md section 9) makes worker
count invisible in the simulated world, so digests must match across
every bulk-load run and across every compaction run.  (Equivalence with
the pre-engine streaming builders is a tier-1 test against
``tests/reference``, not a bench arm.)
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

WORKER_COUNTS = (1, 2, 4)

PAPER_CLAIM = ("(engineering) Fig. 6 sweeps rebuild multi-million-key "
               "stores per configuration; ingest wall-clock gates them")


def _dataset(num_keys: int, seed: int) -> List[Tuple[bytes, bytes]]:
    rng = make_rng(seed, "ingest-bench")
    keys = sorted({rng.random_bytes(8) for _ in range(num_keys)})
    return [(key, key * 3) for key in keys]


def _fresh(workers: int, **overrides) -> Tuple[LSMTree, StorageDevice,
                                               SimClock]:
    clock = SimClock()
    device = StorageDevice(clock)
    options = LSMOptions(filter_builder=BloomFilterBuilder(10),
                         build_threads=workers, **overrides)
    return (LSMTree(options=options, clock=clock, device=device),
            device, clock)


def _digest(device: StorageDevice) -> str:
    state = hashlib.sha256()
    for path in device.list_files():
        state.update(path.encode())
        state.update(device._files[path])
    return state.hexdigest()


def _bench_bulk_load(items, rows) -> Dict[int, Tuple[float, str]]:
    runs: Dict[int, Tuple[float, str]] = {}
    for workers in WORKER_COUNTS:
        db, device, clock = _fresh(workers)
        started = time.perf_counter()
        db.bulk_load(items)
        elapsed = time.perf_counter() - started
        runs[workers] = (elapsed, _digest(device))
        rows.append({
            "phase": "bulk_load",
            "workers": workers,
            "seconds": elapsed,
            "keys_per_second": len(items) / elapsed,
            "sim_us": clock.now_us,
        })
    return runs


def _bench_compact(items, rows) -> Dict[int, Tuple[float, str]]:
    runs: Dict[int, Tuple[float, str]] = {}
    for workers in WORKER_COUNTS:
        # A high L0 trigger parks every flush in L0, so the timed
        # compact_all performs the entire merge in one forced pass.
        db, device, clock = _fresh(workers,
                                   memtable_size_bytes=64 * 1024,
                                   l0_compaction_trigger=10_000)
        for start in range(0, len(items), 512):
            db.put_many(items[start:start + 512])
        started = time.perf_counter()
        db.compact_all()
        elapsed = time.perf_counter() - started
        runs[workers] = (elapsed, _digest(device))
        rows.append({
            "phase": "compact_all",
            "workers": workers,
            "seconds": elapsed,
            "keys_per_second": len(items) / elapsed,
            "sim_us": clock.now_us,
        })
    return runs


def _bench_put_many(items, rows) -> Dict[str, float]:
    db_loop, _, _ = _fresh(1)
    started = time.perf_counter()
    for key, value in items:
        db_loop.put(key, value)
    loop_s = time.perf_counter() - started

    db_batch, _, _ = _fresh(1)
    started = time.perf_counter()
    for start in range(0, len(items), 256):
        db_batch.put_many(items[start:start + 256])
    batch_s = time.perf_counter() - started

    rows.append({"phase": "put loop", "workers": 1, "seconds": loop_s,
                 "keys_per_second": len(items) / loop_s,
                 "sim_us": db_loop.clock.now_us})
    rows.append({"phase": "put_many", "workers": 1, "seconds": batch_s,
                 "keys_per_second": len(items) / batch_s,
                 "sim_us": db_batch.clock.now_us})
    return {"loop_seconds": loop_s, "batch_seconds": batch_s}


def run(num_keys: int = 220_000, compact_keys: int = 60_000,
        batch_keys: int = 40_000, seed: int = 9) -> ExperimentReport:
    """Time the three ingest paths per worker count, digest every run."""
    bulk_items = _dataset(num_keys, seed)
    compact_items = _dataset(compact_keys, seed + 1)
    batch_items = _dataset(batch_keys, seed + 2)

    rows: List[Dict[str, object]] = []
    bulk = _bench_bulk_load(bulk_items, rows)
    compact = _bench_compact(compact_items, rows)
    batched = _bench_put_many(batch_items, rows)

    bulk_digests = {w: digest for w, (_, digest) in bulk.items()}
    compact_digests = {w: digest for w, (_, digest) in compact.items()}
    return ExperimentReport(
        experiment="BENCH_ingest",
        title="Parallel ingest engine: wall-clock per worker count",
        paper_claim=PAPER_CLAIM,
        scale_note=(f"bulk_load {len(bulk_items):,} keys, compact_all over "
                    f"{len(compact_items):,} keys, put_many "
                    f"{len(batch_items):,} keys; build_threads "
                    f"{WORKER_COUNTS}"),
        rows=rows,
        summary={
            "put_many_speedup_vs_loop":
                batched["loop_seconds"] / batched["batch_seconds"],
            "bulk_digests_all_identical":
                len(set(bulk_digests.values())) == 1,
            "compact_engine_digests_identical":
                len(set(compact_digests.values())) == 1,
            "bulk_digest": bulk_digests[4],
            "compact_digest_engine": compact_digests[4],
        },
    )
