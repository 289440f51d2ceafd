"""Sorted-view range-engine bench: scan throughput, attack wall, amortization.

An engineering bench beyond the paper's tables, for the REMIX-style
range-read engine (DESIGN.md section 13).  Three arms, one run:

* **scans** — a filterless store whose L0 is deliberately left deep
  (high compaction trigger), the worst case a per-query k-way merge can
  face and the case the view exists for: windows from narrow to wide
  plus the range-descent oracle's exact probe shape (open-ended
  ``limit=1``), reported as queries per second.  Narrow windows are the
  interesting points: wide scans amortize their seeks into the
  per-entry charge floor, while the attack probes are all seek.
* **attack** — the full range-descent *timing* attack (cutoff learning,
  averaged timed probes, background churn) over a SuRF environment at
  10x the seed experiment's key count.
* **amortization** — one churning store (clustered writes, periodic range
  reads) measuring what incremental view maintenance costs at install
  time: segments actually rebuilt vs the rebuild-everything-per-install
  worst case.

That the view is bit-identical to the classic heap merge (results, stats,
simulated clock) is a tier-1 test against the unmappable-device twin in
``tests/reference``, not a bench arm.
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

from repro.bench.report import ExperimentReport
from repro.common.rng import make_rng
from repro.core import learn_cutoff
from repro.core.range_attack import (
    RangeAttackConfig,
    RangeDescentAttack,
    TimingRangeOracle,
)
from repro.filters.surf import SuRFBuilder
from repro.lsm.db import LSMTree
from repro.lsm.options import LSMOptions
from repro.lsm.sorted_view import ensure_view
from repro.workloads import ATTACKER_USER, DatasetConfig, build_environment

WIDTH = 5

PAPER_CLAIM = ("(engineering) the range-descent attack and any range-read "
               "workload are gated by bounded-scan latency; a per-version "
               "sorted view removes the per-query merge rebuild without "
               "moving the timing side channel")


# --------------------------------------------------------------------- scans

def _build_scan_store(num_keys: int,
                      seed: int) -> Tuple[LSMTree, List[bytes]]:
    """A filterless store with a deep L0: many overlapping runs."""
    db = LSMTree(LSMOptions(
        memtable_size_bytes=16 * 1024,
        sstable_target_bytes=4 * 1024 * 1024,
        l0_compaction_trigger=256,
        filter_builder=None,
        page_cache_bytes=64 * 1024 * 1024,
        enable_wal=False,
        seed=seed,
    ))
    rng = make_rng(seed, "scan-keys")
    keys = sorted({rng.random_bytes(WIDTH) for _ in range(num_keys)})
    load_order = keys[:]
    make_rng(seed + 1, "scan-load").shuffle(load_order)
    for key in load_order:
        db.put(key, b"v" * 16)
    return db, keys


def _bench_scans(rows: List[Dict[str, object]], num_keys: int,
                 num_queries: int, seed: int) -> Dict[str, object]:
    db, keys = _build_scan_store(num_keys, seed)
    tables = sum(len(level) for level in db.version.levels)
    summary: Dict[str, object] = {"scan_tables": tables}

    def timed(label, queries, limit=None):
        db.range_query(*queries[0], limit=limit)  # warm the decoded cache
        started = time.perf_counter()
        for low, high in queries:
            db.range_query(low, high, limit=limit)
        elapsed = time.perf_counter() - started
        rows.append({"phase": "scan", "window": label,
                     "queries": len(queries), "seconds": elapsed,
                     "queries_per_s": len(queries) / elapsed})
        return len(queries) / elapsed

    for window in (4, 16, 64):
        rng = make_rng(seed + window, "scan-windows")
        starts = [rng.randrange(len(keys) - window)
                  for _ in range(num_queries)]
        rate = timed(window, [(keys[i], keys[i + window - 1])
                              for i in starts])
        if window == 4:
            summary["scan_queries_per_s"] = rate
    # The oracle's probe: open-ended low bound, limit=1 — pure seek.
    rng = make_rng(seed + 9, "scan-probes")
    high_tail = b"\xff" * WIDTH
    lows = [rng.random_bytes(WIDTH) for _ in range(num_queries)]
    summary["probe_queries_per_s"] = timed(
        "oracle probe (limit=1)",
        [(low, low + high_tail) for low in lows], limit=1)
    summary["scan_view_seeks"] = db.stats.sorted_view_seeks
    db.close()
    summary["scan_leaked_pins"] = db.leaked_pins
    return summary


# -------------------------------------------------------------------- attack

def _bench_attack(rows: List[Dict[str, object]], num_keys: int,
                  target_keys: int, num_samples: int,
                  seed: int) -> Dict[str, object]:
    env = build_environment(DatasetConfig(
        num_keys=num_keys, key_width=WIDTH, seed=seed,
        filter_builder=SuRFBuilder(variant="real", suffix_bits=8)))
    started = time.perf_counter()
    learning = learn_cutoff(env.service, ATTACKER_USER, WIDTH,
                            num_samples=num_samples,
                            background=env.background)
    learn_s = time.perf_counter() - started
    oracle = TimingRangeOracle(env.service, ATTACKER_USER,
                               cutoff_us=learning.cutoff_us,
                               background=env.background,
                               wait_us=50_000.0)
    started = time.perf_counter()
    descent = RangeDescentAttack(oracle, RangeAttackConfig(
        key_width=WIDTH, max_keys=target_keys, seed=seed + 1)).run()
    descent_s = time.perf_counter() - started
    correct = sum(1 for key in descent.keys if key in env.key_set)
    env.db.close()
    rows.append({
        "phase": "attack",
        "learning_s": learn_s,
        "descent_s": descent_s,
        "keys_extracted": len(descent.keys),
        "correct": correct,
        "queries_per_key": descent.queries_per_key(),
    })
    # The cutoff-learning phase is point queries only; the descent is
    # the range-query phase.  On a bulk-loaded (compact, filter-pruned)
    # victim it is probe-bound — the deep-L0 scan arm above is where the
    # seek cost dominates.
    return {
        "attack_wall_s": learn_s + descent_s,
        "attack_descent_s": descent_s,
        "attack_keys_extracted": len(descent.keys),
        "attack_leaked_pins": env.db.leaked_pins,
    }


# -------------------------------------------------------------- amortization

def _churn(db: LSMTree, keys_per_band: int, rounds: int,
           seed: int) -> float:
    """Clustered write churn with interleaved narrow range reads.

    Each round's writes share one prefix band, so a flush's key span is
    narrow and the incremental evolve can keep far-away segments; the
    interleaved reads keep the view instantiated.
    """
    rng = make_rng(seed, "churn")
    started = time.perf_counter()
    for round_index in range(rounds):
        band = bytes([round_index % 8])
        for _ in range(keys_per_band):
            db.put(band + rng.random_bytes(WIDTH - 1), b"c" * 12)
        low = band + b"\x40"
        db.range_query(low, low + b"\x20" * (WIDTH - 1))
    return time.perf_counter() - started


def _bench_amortization(rows: List[Dict[str, object]], num_keys: int,
                        keys_per_band: int, rounds: int,
                        seed: int) -> Dict[str, object]:
    db = LSMTree(LSMOptions(
        memtable_size_bytes=32 * 1024,
        sstable_target_bytes=64 * 1024,
        filter_builder=None,
        enable_wal=False,
        seed=seed,
    ))
    rng = make_rng(seed, "amortize-keys")
    for _ in range(num_keys):
        db.put(rng.random_bytes(WIDTH), b"v" * 12)
    db.range_query(b"\x10", b"\x10" + b"\xff" * (WIDTH - 1),
                   limit=32)  # instantiate the first view
    churn_s = _churn(db, keys_per_band, rounds, seed + 1)
    view = ensure_view(db.version)
    segments_now = len(view.seg_keys) if view is not None else 0
    installs = db.stats.flushes
    rebuilt = db.stats.view_rebuild_segments
    # The alternative the incremental evolve replaces: rebuilding every
    # segment at every install.
    full_rebuild_segments = max(1, installs * segments_now)
    db.close()
    rows.append({
        "phase": "amortize",
        "installs_flushes": installs,
        "segments_in_final_view": segments_now,
        "segments_rebuilt_total": rebuilt,
        "rebuild_fraction_vs_full": rebuilt / full_rebuild_segments,
        "churn_wall_s": churn_s,
    })
    return {
        "amortize_rebuild_fraction": rebuilt / full_rebuild_segments,
        "amortize_leaked_pins": db.leaked_pins,
    }


def run(scan_keys: int = 50_000, scan_queries: int = 800,
        attack_keys: int = 100_000, attack_targets: int = 8,
        attack_samples: int = 3_000, amortize_keys: int = 24_000,
        amortize_band: int = 400, amortize_rounds: int = 8,
        seed: int = 23) -> ExperimentReport:
    """Scan-throughput sweep, range-descent attack, churn amortization."""
    rows: List[Dict[str, object]] = []
    summary = _bench_scans(rows, scan_keys, scan_queries, seed)
    summary.update(_bench_attack(rows, attack_keys, attack_targets,
                                 attack_samples, seed + 7))
    summary.update(_bench_amortization(rows, amortize_keys, amortize_band,
                                       amortize_rounds, seed + 11))
    return ExperimentReport(
        experiment="BENCH_range_view",
        title="Sorted-view range engine: bounded scans, attack wall-clock",
        paper_claim=PAPER_CLAIM,
        scale_note=(f"{scan_queries:,} bounded scans per window against a "
                    f"{scan_keys:,}-key deep-L0 store "
                    f"({summary['scan_tables']} runs); range-descent timing "
                    f"attack on {attack_keys:,} keys; "
                    f"{amortize_rounds} clustered churn rounds over "
                    f"{amortize_keys:,} keys"),
        rows=rows,
        summary=summary,
    )
