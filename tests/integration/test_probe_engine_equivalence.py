"""Probe-engine equivalence: the batched filter path must be invisible.

The filter-probe engine (DESIGN.md section 10) is a wall-clock
optimization: a pure prepass computes a batch's filter verdicts through
vectorized/shared-prefix batch probes, and the per-key search loop
replays against the memo.  The attack's signal lives entirely in
*simulated* time, so everything observable — verdicts, per-query
latencies, extracted keys, per-stage query counts, per-filter stats, the
final clock — must be bit-identical to a store that has no engine at
all.  "Off" here is that store: a twin whose point reads are served by
the plain scalar loop in ``tests/reference`` (``use_scalar_reads``).
These tests run the same seeded pipelines on both and compare every
observable, for the SuRF timing attack (both trie and LOUDS backends)
and the PBF attack the paper's section 7 describes.
"""

import pytest
from reference.point_read import use_scalar_reads

from repro.core import (
    AttackConfig,
    FineTimingOracle,
    IdealizedOracle,
    PbfAttackStrategy,
    PrefixSiphoningAttack,
    SurfAttackStrategy,
    TimingOracle,
    learn_cutoff,
)
from repro.filters import PrefixBloomFilterBuilder, SuRFBuilder
from repro.filters.surf import SuffixScheme, SurfVariant
from repro.workloads import ATTACKER_USER, DatasetConfig, build_environment

WIDTH = 5


def build_surf_env(probe_engine, backend="trie", num_keys=4000):
    env = build_environment(DatasetConfig(
        num_keys=num_keys, key_width=WIDTH, seed=77,
        filter_builder=SuRFBuilder(variant="real", suffix_bits=8,
                                   backend=backend)))
    if not probe_engine:
        use_scalar_reads(env.db)
    return env


def filter_stats(db):
    """Per-filter counter tuples in search-structure order."""
    return [(t.filter.stats.point_queries, t.filter.stats.positives)
            for level in db.version.levels for t in level
            if t.filter is not None]


def run_surf_attack(env, num_samples=1500, num_candidates=6000):
    learning = learn_cutoff(env.service, ATTACKER_USER, WIDTH,
                            num_samples=num_samples,
                            background=env.background)
    oracle = TimingOracle(env.service, ATTACKER_USER,
                          cutoff_us=learning.cutoff_us, rounds=3,
                          background=env.background, wait_us=100_000.0)
    strategy = SurfAttackStrategy(
        WIDTH, SuffixScheme(SurfVariant.REAL, 8), seed=78)
    result = PrefixSiphoningAttack(
        oracle, strategy,
        AttackConfig(key_width=WIDTH, num_candidates=num_candidates)).run()
    return learning, result


class TestSurfAttackEquivalence:
    @pytest.mark.parametrize("backend", ["trie", "louds"])
    def test_full_attack_identical_on_and_off(self, backend):
        env_on = build_surf_env(True, backend)
        env_off = build_surf_env(False, backend)
        learn_on, result_on = run_surf_attack(env_on)
        learn_off, result_off = run_surf_attack(env_off)

        # Learning: identical cutoff and identical per-query latencies.
        assert learn_on.cutoff_us == learn_off.cutoff_us
        assert learn_on.samples == learn_off.samples

        # Attack: identical disclosures, accounting, simulated time.
        assert ([e.key for e in result_on.extracted]
                == [e.key for e in result_off.extracted])
        assert result_on.queries_by_stage == result_off.queries_by_stage
        assert result_on.sim_duration_us == result_off.sim_duration_us
        assert env_on.clock.now_us == env_off.clock.now_us

        # Stats recorded during replay must match the scalar loop's: the
        # engine may *compute* more verdicts than the replay consumes,
        # but only consumed verdicts count.
        assert filter_stats(env_on.db) == filter_stats(env_off.db)
        assert env_on.db.stats.__dict__ == env_off.db.stats.__dict__


class TestPbfAttackEquivalence:
    def test_full_attack_identical_on_and_off(self):
        outcomes = {}
        for engine_on in (False, True):
            env = build_environment(DatasetConfig(
                num_keys=8000, key_width=4, seed=62,
                filter_builder=PrefixBloomFilterBuilder(prefix_len=3,
                                                        bits_per_key=18.0)))
            if not engine_on:
                use_scalar_reads(env.db)
            oracle = IdealizedOracle(env.service, ATTACKER_USER)
            strategy = PbfAttackStrategy(key_width=4, seed=63)
            scan = strategy.detect_prefix_length(oracle, min_len=2, max_len=3,
                                                 samples_per_length=2000)
            result = PrefixSiphoningAttack(
                oracle, strategy,
                AttackConfig(key_width=4, num_candidates=15_000)).run()
            outcomes[engine_on] = (scan.detected,
                                   [e.key for e in result.extracted],
                                   result.queries_by_stage,
                                   result.sim_duration_us,
                                   env.clock.now_us,
                                   filter_stats(env.db))
        assert outcomes[False] == outcomes[True]
        assert outcomes[True][1]  # the attack actually extracted keys


class TestBatchPathEquivalence:
    def test_get_many_matches_scalar_gets(self):
        env_batch = build_surf_env(True, num_keys=2500)
        env_scalar = build_surf_env(False, num_keys=2500)
        probes = []
        for i, stored in enumerate(env_batch.keys[::41]):
            probes.append(stored)
            probes.append(bytes([i % 251, 3 * i % 251, 9, 55, i % 17]))
        probes += probes[:25]  # duplicates must replay identically
        batched = env_batch.service.get_many_timed(ATTACKER_USER, probes)
        scalar = [env_scalar.service.get_timed(ATTACKER_USER, key)
                  for key in probes]
        assert [(r.status, t) for r, t in batched] \
            == [(r.status, t) for r, t in scalar]
        assert env_batch.clock.now_us == env_scalar.clock.now_us
        assert filter_stats(env_batch.db) == filter_stats(env_scalar.db)

    def test_filters_pass_many_matches_scalar_loop(self):
        env_batch = build_surf_env(True, num_keys=2500)
        env_scalar = build_surf_env(True, num_keys=2500)
        probes = list(env_batch.keys[::29])
        probes += [bytes([i % 251, i % 13, 1, 2, 3]) for i in range(200)]
        probes += probes[:15]
        batched = env_batch.db.filters_pass_many(probes)
        scalar = [env_scalar.db.filters_pass(key) for key in probes]
        assert batched == scalar
        # Short-circuit accounting: later filters on a key's path are not
        # probed (nor recorded) once one passes — in both worlds.
        assert filter_stats(env_batch.db) == filter_stats(env_scalar.db)

    def test_fine_timing_batched_classify_matches_per_key_loop(self):
        env_batch = build_surf_env(True, num_keys=2500)
        env_loop = build_surf_env(True, num_keys=2500)
        keys = list(env_batch.keys[::37])
        keys += [bytes([i % 251, 7, i % 29, 4, 5]) for i in range(60)]

        oracle = FineTimingOracle(env_batch.service, ATTACKER_USER,
                                  cutoff_us=30.0, rounds=5)
        verdicts = oracle.classify(keys)

        # Reference: the per-key warm-then-average loop this replaced.
        rounds = 5
        reference = []
        ref_counter = 0
        for key in keys:
            ref_counter += rounds + 1
            timed = env_loop.service.get_many_timed(ATTACKER_USER,
                                                    [key] * (rounds + 1))
            total = sum(elapsed for _, elapsed in timed[1:])
            reference.append(total / rounds >= 30.0)

        assert verdicts == reference
        assert oracle.counter.total == ref_counter
        assert env_batch.clock.now_us == env_loop.clock.now_us
        assert filter_stats(env_batch.db) == filter_stats(env_loop.db)

    def test_extension_chunking_identical_on_and_off(self):
        # The buffered serial scan of extend_prefix must not change what
        # the idealized attack pays per prefix.
        results = {}
        for engine_on in (False, True):
            env = build_surf_env(engine_on, num_keys=4000)
            oracle = IdealizedOracle(env.service, ATTACKER_USER)
            strategy = SurfAttackStrategy(
                WIDTH, SuffixScheme(SurfVariant.REAL, 8), seed=81)
            result = PrefixSiphoningAttack(
                oracle, strategy,
                AttackConfig(key_width=WIDTH, num_candidates=8000)).run()
            results[engine_on] = ([e.key for e in result.extracted],
                                  result.queries_by_stage,
                                  [e.queries_spent for e in result.extracted],
                                  env.clock.now_us)
        assert results[False] == results[True]
