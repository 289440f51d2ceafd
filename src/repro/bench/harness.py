"""Shared experiment plumbing: environments and attacks.

Experiment modules compose these helpers.  An environment is mutable
(clock, page cache, RNG streams), so every call builds a fresh one: a
report is a function of its ``run()`` arguments, never of what ran
earlier in the process.  Memoize results, not environments — Figure 3
and Table 2 share one actual-attack run (``exp_fig3.run_pair``), exactly
as in the paper.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.core.learning import LearningResult, learn_cutoff
from repro.core.oracle import IdealizedOracle, TimingOracle
from repro.core.results import AttackResult, QueryCounter
from repro.core.surf_attack import SurfAttackStrategy
from repro.core.template import AttackConfig, PrefixSiphoningAttack
from repro.filters.surf import SuRFBuilder, SuffixScheme, SurfVariant
from repro.workloads.datasets import ATTACKER_USER, DatasetConfig, Environment, build_environment


def surf_environment(num_keys: int = 50_000, key_width: int = 5,
                     variant: str = "real", suffix_bits: int = 8,
                     seed: int = 0,
                     distinguish_unauthorized: bool = True) -> Environment:
    """A fresh RocksDB+SuRF-style environment (DESIGN.md defaults)."""
    config = DatasetConfig(
        num_keys=num_keys, key_width=key_width, seed=seed,
        filter_builder=SuRFBuilder(variant=variant, suffix_bits=suffix_bits),
        distinguish_unauthorized=distinguish_unauthorized,
    )
    return build_environment(config)


def surf_strategy(env: Environment, variant: str = "real",
                  suffix_bits: int = 8, mode: str = "truncate",
                  seed: int = 0) -> SurfAttackStrategy:
    """Attacker configured with (public) knowledge of the SuRF variant."""
    return SurfAttackStrategy(
        key_width=env.config.key_width,
        filter_scheme=SuffixScheme(SurfVariant(variant), suffix_bits),
        mode=mode, seed=seed,
    )


@dataclass
class TimedRun:
    """An attack result plus its preliminary learning phase."""

    learning: Optional[LearningResult]
    result: AttackResult
    wall_seconds: float


def run_idealized_attack(env: Environment, strategy,
                         num_candidates: int,
                         max_extension_queries: int = 1 << 16,
                         extend: bool = True) -> TimedRun:
    """The section-10.2.2 idealized attack (debug-counter oracle)."""
    started = time.perf_counter()
    oracle = IdealizedOracle(env.service, ATTACKER_USER)
    attack = PrefixSiphoningAttack(oracle, strategy, AttackConfig(
        key_width=env.config.key_width, num_candidates=num_candidates,
        max_extension_queries=max_extension_queries, extend=extend,
    ))
    result = attack.run()
    return TimedRun(None, result, time.perf_counter() - started)


#: Learning-phase samples of :func:`run_timing_attack`.
LEARNING_SAMPLES = 20_000
#: Between-iteration wait, simulated microseconds: the paper waits 20 s for
#: its 2 GB page cache to churn; our cache is ~1000x smaller, so 2 s keeps
#: the same wait >> query-time regime without being gratuitous.
WAIT_US = 2_000_000.0


def run_timing_attack(env: Environment, strategy,
                      num_candidates: int) -> TimedRun:
    """The actual attack: learning phase + timing oracle (sections 5.3, 9)."""
    started = time.perf_counter()
    counter = QueryCounter()
    learning = learn_cutoff(env.service, ATTACKER_USER,
                            key_width=env.config.key_width,
                            num_samples=LEARNING_SAMPLES,
                            seed=env.config.seed,
                            background=env.background,
                            counter=counter)
    oracle = TimingOracle(env.service, ATTACKER_USER,
                          cutoff_us=learning.cutoff_us,
                          background=env.background, wait_us=WAIT_US)
    oracle.counter = counter
    attack = PrefixSiphoningAttack(oracle, strategy, AttackConfig(
        key_width=env.config.key_width, num_candidates=num_candidates))
    result = attack.run()
    return TimedRun(learning, result, time.perf_counter() - started)


def correctness(env: Environment, result: AttackResult) -> Tuple[int, int]:
    """(correct, total) extracted keys checked against ground truth."""
    stored = env.key_set
    correct = sum(1 for e in result.extracted if e.key in stored)
    return correct, len(result.extracted)
