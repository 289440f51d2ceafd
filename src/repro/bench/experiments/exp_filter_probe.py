"""Filter-probe engine bench: batched probe throughput + attack wall-clock.

An engineering bench beyond the paper's tables: every stage of every
attack — cutoff learning, FindFPK classification, prefix extension — is
at bottom a stream of filter probes, so probe throughput gates attack
wall-clock the way ``get`` latency did before the read-path overhaul and
ingest did before the build engine.  The bench measures, in one run:

* per-filter probe throughput, scalar loop vs :meth:`Filter.probe_many`
  (the engine's pure batch entry point), over a probe mix that is half
  shared-prefix guesses and half uniform noise — the shape FindFPK
  actually issues — asserting the verdict vectors are identical;
* the full SuRF timing attack (LOUDS backend — the paper's succinct
  encoding, where filter probes dominate the get path), wall-clock and
  simulated duration.  That the batched read path is bit-identical to a
  plain scalar loop is a tier-1 test against ``tests/reference``, not a
  bench arm.
"""

from __future__ import annotations

import time
from typing import Dict, List

from repro.bench.report import ExperimentReport
from repro.common.rng import make_rng
from repro.core import (AttackConfig, PrefixSiphoningAttack,
                        SurfAttackStrategy, TimingOracle, learn_cutoff)
from repro.filters.bloom import BloomFilterBuilder
from repro.filters.prefix_bloom import PrefixBloomFilterBuilder
from repro.filters.rosetta import RosettaFilterBuilder
from repro.filters.surf import SuffixScheme, SurfVariant
from repro.filters.surf.surf import SuRFBuilder
from repro.workloads import ATTACKER_USER, DatasetConfig, build_environment

WIDTH = 5

PAPER_CLAIM = ("(engineering) every attack stage is a stream of filter "
               "probes; probe throughput gates attack wall-clock")


def _builders() -> Dict[str, object]:
    return {
        "bloom": BloomFilterBuilder(10.0),
        "pbf": PrefixBloomFilterBuilder(prefix_len=WIDTH - 2),
        "surf-trie": SuRFBuilder(variant="real", suffix_bits=8,
                                 backend="trie"),
        "surf-louds": SuRFBuilder(variant="real", suffix_bits=8,
                                  backend="louds"),
        "rosetta": RosettaFilterBuilder(key_bytes=WIDTH,
                                        bits_per_key_per_level=8.0),
    }


def _probe_mix(keys: List[bytes], num_probes: int, seed: int) -> List[bytes]:
    """FindFPK-shaped probes: half shared-prefix guesses, half noise."""
    rng = make_rng(seed, "probe-mix")
    half = num_probes // 2
    base = keys[::max(1, len(keys) // half)]
    prefixed = [base[i % len(base)][:3] + rng.random_bytes(WIDTH - 3)
                for i in range(half)]
    noise = [rng.random_bytes(WIDTH) for _ in range(num_probes - half)]
    probes = prefixed + noise
    rng.shuffle(probes)
    return probes


def _bench_probes(rows: List[Dict[str, object]], num_keys: int,
                  num_probes: int, seed: int, reps: int) -> Dict[str, float]:
    rng = make_rng(seed, "probe-keys")
    keys = sorted({rng.random_bytes(WIDTH) for _ in range(num_keys)})
    probes = _probe_mix(keys, num_probes, seed + 1)
    speedups: Dict[str, float] = {}
    for name, builder in _builders().items():
        filt = builder.build(keys)
        scalar_probe = filt._may_contain  # the pure per-key hook
        best_scalar = best_batch = float("inf")
        for _ in range(reps):
            started = time.perf_counter()
            scalar = [scalar_probe(key) for key in probes]
            best_scalar = min(best_scalar, time.perf_counter() - started)
            started = time.perf_counter()
            batch = filt.probe_many(probes)
            best_batch = min(best_batch, time.perf_counter() - started)
            assert scalar == batch, f"{name}: batch verdicts diverged"
        speedups[name] = best_scalar / best_batch
        rows.append({
            "phase": "probe",
            "filter": name,
            "scalar_probes_per_s": len(probes) / best_scalar,
            "batch_probes_per_s": len(probes) / best_batch,
            "speedup": speedups[name],
        })
    return speedups


def _bench_attack(rows: List[Dict[str, object]], num_keys: int,
                  num_samples: int, num_candidates: int,
                  seed: int) -> Dict[str, object]:
    env = build_environment(DatasetConfig(
        num_keys=num_keys, key_width=WIDTH, seed=seed,
        filter_builder=SuRFBuilder(variant="real", suffix_bits=8,
                                   backend="louds")))
    started = time.perf_counter()
    learning = learn_cutoff(env.service, ATTACKER_USER, WIDTH,
                            num_samples=num_samples,
                            background=env.background)
    oracle = TimingOracle(env.service, ATTACKER_USER,
                          cutoff_us=learning.cutoff_us, rounds=3,
                          background=env.background, wait_us=100_000.0)
    strategy = SurfAttackStrategy(
        WIDTH, SuffixScheme(SurfVariant.REAL, 8), seed=101)
    result = PrefixSiphoningAttack(
        oracle, strategy,
        AttackConfig(key_width=WIDTH, num_candidates=num_candidates)).run()
    elapsed = time.perf_counter() - started
    rows.append({
        "phase": "attack",
        "seconds": elapsed,
        "extracted_keys": result.num_extracted,
        "total_queries": result.total_queries,
        "sim_duration_us": result.sim_duration_us,
    })
    return {"attack_wall_s": elapsed,
            "attack_extracted_keys": result.num_extracted}


def run(num_keys: int = 20_000, num_probes: int = 40_000,
        attack_keys: int = 6_000, attack_samples: int = 2_000,
        attack_candidates: int = 20_000, seed: int = 13,
        reps: int = 3) -> ExperimentReport:
    """Probe-throughput sweep plus one full LOUDS-SuRF timing attack."""
    rows: List[Dict[str, object]] = []
    speedups = _bench_probes(rows, num_keys, num_probes, seed, reps)
    attack = _bench_attack(rows, attack_keys, attack_samples,
                           attack_candidates, seed + 7)
    summary: Dict[str, object] = {
        f"probe_speedup_{name.replace('-', '_')}": value
        for name, value in speedups.items()
    }
    summary.update(attack)
    return ExperimentReport(
        experiment="BENCH_filter_probe",
        title="Filter-probe engine: batched probes vs scalar loop",
        paper_claim=PAPER_CLAIM,
        scale_note=(f"{num_probes:,} probes against {num_keys:,}-key "
                    f"filters (best of {reps}); SuRF timing attack on "
                    f"{attack_keys:,} keys, {attack_candidates:,} "
                    f"candidates"),
        rows=rows,
        summary=summary,
    )
