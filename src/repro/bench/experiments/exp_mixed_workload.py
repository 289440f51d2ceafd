"""Mixed workload — read stalls under compaction, sync vs background.

The MVCC overhaul's performance claim: moving compaction merges off the
serving path (copy-on-install versions + the silent background device)
removes the compaction charges from concurrently-measured request
latencies.  Two measurements, one store layout each mode:

* **read stalls during compact_all** — point reads raced against a
  forced full compaction on a second thread, timed on the shared
  simulated clock.  With inline compaction the clock advances by whole
  merge passes *during* in-flight reads, so the read tail absorbs
  multi-millisecond stalls; with background compaction the merges charge
  a throwaway clock and the tail stays at the ordinary read-path cost.
* **write-side spikes** (deterministic, single-threaded) — per-batch
  ``put_many`` simulated durations.  A batch whose flush trips inline
  compaction pays the whole merge in simulated time; with the background
  thread the same batch pays only its WAL append + flush.

Plus the paper-side sanity check: the siphoning attack, run against a
snapshot while the store churns, still extracts keys (the full-scale twin
of ``tests/integration/test_concurrent_attack_equivalence.py``).
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List

from repro.bench.report import ExperimentReport
from repro.common.rng import make_rng
from repro.core import (
    AttackConfig,
    PrefixSiphoningAttack,
    SurfAttackStrategy,
    TimingOracle,
    learn_cutoff,
)
from repro.filters import SuRFBuilder
from repro.filters.surf import SuffixScheme, SurfVariant
from repro.lsm.db import LSMTree
from repro.lsm.options import LSMOptions
from repro.storage.background import BackgroundLoad
from repro.system.service import KVService
from repro.workloads import ATTACKER_USER, DatasetConfig, build_environment

PAPER_CLAIM = ("(engineering) the attack needs 10^5-10^6 timed queries "
               "against a live store; serving-path stalls from compaction "
               "would contaminate every timing sample taken during churn")

KEY_WIDTH = 5


def _options(background: bool) -> LSMOptions:
    return LSMOptions(memtable_size_bytes=24 * 1024,
                      sstable_target_bytes=32 * 1024,
                      l0_compaction_trigger=3,
                      background_compaction=background)


def _percentile(samples: List[float], fraction: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(fraction * len(ordered)))
    return ordered[index]


def _stall_run(background: bool, num_reads: int,
               batches: int) -> Dict[str, float]:
    """Stream writes, then time reads racing a forced ``compact_all``.

    Phase 1 (single-threaded, deterministic): ``put_many`` batches whose
    flushes trip compactions as they go — per-batch simulated durations
    expose the write-side spikes of inline merging.  Phase 2: refill L0,
    then run ``compact_all`` on a second thread while the main thread
    times point reads on the shared clock.  Inline merging advances that
    clock by whole passes mid-read; the background engine merges on a
    throwaway clock, so the same reads see only the ordinary path cost.
    """
    db = LSMTree(_options(background))
    num_hot = 512
    hot = [b"hot-%06d" % i for i in range(num_hot)]
    for key in hot:
        db.put(key, b"v" * 64)
    db.flush()

    write_times: List[float] = []
    for batch_id in range(batches):
        items = [(b"churn-%08d" % (batch_id * 128 + i), b"w" * 64)
                 for i in range(128)]
        started = db.clock.now_us
        db.put_many(items)
        write_times.append(db.clock.now_us - started)

    # Refill L0 so the raced compact_all has a full merge to do in both
    # modes, whatever ran opportunistically during the stream.
    for batch_id in range(batches, batches + 8):
        db.put_many([(b"churn-%08d" % (batch_id * 128 + i), b"w" * 64)
                     for i in range(128)])

    read_times: List[float] = []
    rng = make_rng(7, "mixed-reads")
    started_wall = time.perf_counter()
    compactor_thread = threading.Thread(target=db.compact_all)
    compactor_thread.start()
    try:
        while compactor_thread.is_alive() or len(read_times) < num_reads:
            key = hot[rng.randrange(num_hot)]
            t0 = db.clock.now_us
            db.get(key)
            read_times.append(db.clock.now_us - t0)
    finally:
        compactor_thread.join()
    wall_s = time.perf_counter() - started_wall
    compactions = (db._bg_compactor or db._compactor).compactions_run
    db.close()
    return {
        "read_p50_us": _percentile(read_times, 0.50),
        "read_p99_us": _percentile(read_times, 0.99),
        "read_max_us": max(read_times),
        "reads_timed": len(read_times),
        "write_p99_us": _percentile(write_times, 0.99),
        "write_max_us": max(write_times),
        "compactions": compactions,
        "leaked_pins": db.leaked_pins,
        "wall_seconds": wall_s,
    }


def _attack_under_churn(num_keys: int) -> Dict[str, float]:
    """Siphon a snapshot while the live tree churns underneath it."""
    env = build_environment(DatasetConfig(
        num_keys=num_keys, key_width=KEY_WIDTH, seed=31,
        filter_builder=SuRFBuilder(variant="real", suffix_bits=8),
        background_compaction=True,
    ))
    snap = env.db.snapshot()
    service = KVService(snap, env.config.distinguish_unauthorized)
    background = BackgroundLoad(snap.cache, env.background.model,
                                make_rng(env.config.seed, "snapshot-load"))
    stop = threading.Event()

    def churn() -> None:
        batch_id = 0
        while not stop.is_set():
            items = [(b"churn-%08d" % ((batch_id * 64 + i) % 4096),
                      b"x" * 64) for i in range(64)]
            env.db.put_many(items)
            batch_id += 1

    writer = threading.Thread(target=churn)
    started_wall = time.perf_counter()
    writer.start()
    try:
        learning = learn_cutoff(service, ATTACKER_USER, KEY_WIDTH,
                                num_samples=1200, background=background)
        oracle = TimingOracle(service, ATTACKER_USER,
                              cutoff_us=learning.cutoff_us, rounds=3,
                              background=background, wait_us=100_000.0)
        result = PrefixSiphoningAttack(
            oracle, SurfAttackStrategy(
                KEY_WIDTH, SuffixScheme(SurfVariant.REAL, 8), seed=32),
            AttackConfig(key_width=KEY_WIDTH, num_candidates=4000)).run()
    finally:
        stop.set()
        writer.join()
    wall_s = time.perf_counter() - started_wall
    extracted = {entry.key for entry in result.extracted}
    correct = len(extracted & env.key_set)
    compactions = env.db._bg_compactor.compactions_run
    snap.close()
    env.db.close()
    return {
        "extracted": len(extracted),
        "correct": correct,
        "queries": sum(result.queries_by_stage.values()),
        "sim_duration_us": result.sim_duration_us,
        "compactions_during_attack": compactions,
        "leaked_pins": env.db.leaked_pins,
        "wall_seconds": wall_s,
    }


def run(num_reads: int = 20_000, batches: int = 120,
        attack_keys: int = 3000) -> ExperimentReport:
    """Measure both compaction modes, then attack a snapshot under churn."""
    rows: List[Dict[str, object]] = []
    modes: Dict[str, Dict[str, float]] = {}
    for label, background in (("sync", False), ("background", True)):
        metrics = _stall_run(background, num_reads, batches)
        modes[label] = metrics
        rows.append({"mode": label, **{k: v for k, v in metrics.items()}})

    attack = _attack_under_churn(attack_keys)
    rows.append({"mode": "attack-under-churn", **attack})

    return ExperimentReport(
        experiment="mixed-workload",
        title="Mixed workload: read stalls under compaction, sync vs "
              "background MVCC",
        paper_claim=PAPER_CLAIM,
        scale_note=(f"{num_reads:,} timed reads against {batches} "
                    f"128-record write batches per mode; attack over "
                    f"{attack_keys:,} keys with concurrent churn"),
        rows=rows,
        summary={
            "sync_read_p99_us": modes["sync"]["read_p99_us"],
            "background_read_p99_us": modes["background"]["read_p99_us"],
            "sync_read_max_us": modes["sync"]["read_max_us"],
            "background_read_max_us": modes["background"]["read_max_us"],
            # Worst read racing compact_all: with silent-clock merges no
            # read can absorb more than its own path cost, so the tail
            # ratio is the stall-removal factor.
            "read_stall_reduction":
                modes["sync"]["read_max_us"]
                / max(modes["background"]["read_max_us"], 1e-9),
            "sync_write_max_us": modes["sync"]["write_max_us"],
            "background_write_max_us": modes["background"]["write_max_us"],
            "background_compactions": modes["background"]["compactions"],
            "sync_compactions": modes["sync"]["compactions"],
            "attack_extracted": attack["extracted"],
            "attack_correct": attack["correct"],
            "attack_compactions": attack["compactions_during_attack"],
            "no_leaked_pins": (modes["sync"]["leaked_pins"] == 0
                               and modes["background"]["leaked_pins"] == 0
                               and attack["leaked_pins"] == 0),
        },
    )
