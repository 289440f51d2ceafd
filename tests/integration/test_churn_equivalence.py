"""Bulk eviction waits: the attacks must not be able to tell.

Every wait between oracle rounds goes through ``PageCache.displace``.
The simulated world has to come out bit-identical to the one in which
each foreign page was inserted on its own (``reference.churn``): same
extracted keys, same query counts, same final simulated clock and same
cache counters — for the range-descent attack, which waits after every
positive probe, and for the point attack.
"""

from reference.churn import use_sequential_churn

from repro.core import (
    AttackConfig,
    PrefixSiphoningAttack,
    RangeAttackConfig,
    RangeDescentAttack,
    SurfAttackStrategy,
    TimingOracle,
    TimingRangeOracle,
    learn_cutoff,
)
from repro.filters import SuRFBuilder
from repro.filters.surf import SuffixScheme, SurfVariant
from repro.workloads import ATTACKER_USER, DatasetConfig, build_environment

WIDTH = 4


def build_env(sequential):
    env = build_environment(DatasetConfig(
        num_keys=3000, key_width=WIDTH, seed=91, cache_fraction=0.3,
        filter_builder=SuRFBuilder(variant="real", suffix_bits=8)))
    if sequential:
        use_sequential_churn(env.cache)
    return env


def learn(env):
    return learn_cutoff(env.service, ATTACKER_USER, WIDTH, num_samples=1500,
                        background=env.background)


def range_descent(env):
    oracle = TimingRangeOracle(env.service, ATTACKER_USER,
                               cutoff_us=learn(env).cutoff_us,
                               background=env.background, wait_us=50_000.0)
    result = RangeDescentAttack(oracle, RangeAttackConfig(
        key_width=WIDTH, max_keys=6, max_queries=20_000)).run()
    return (result.keys, result.prefixes_found, result.range_queries,
            result.point_queries, result.wasted_queries, result.progress)


def point_attack(env):
    oracle = TimingOracle(env.service, ATTACKER_USER,
                          cutoff_us=learn(env).cutoff_us, rounds=3,
                          background=env.background, wait_us=100_000.0)
    strategy = SurfAttackStrategy(
        WIDTH, SuffixScheme(SurfVariant.REAL, 8), seed=92)
    result = PrefixSiphoningAttack(oracle, strategy, AttackConfig(
        key_width=WIDTH, num_candidates=3000)).run()
    return ([e.key for e in result.extracted], result.queries_by_stage,
            result.sim_duration_us)


def assert_same_world(attack):
    bulk, reference = build_env(False), build_env(True)
    outcome = attack(bulk)
    assert outcome == attack(reference)
    assert outcome[0], "the attack extracted nothing: the test proves nothing"
    assert bulk.clock.now_us == reference.clock.now_us
    assert bulk.cache.stats == reference.cache.stats
    assert bulk.cache.used_bytes == reference.cache.used_bytes
    assert bulk.cache.stats.evictions > bulk.background.total_foreign_pages / 2
    assert bulk.background.total_foreign_pages \
        == reference.background.total_foreign_pages > 0


def test_range_descent_identical_under_bulk_and_per_page_churn():
    assert_same_world(range_descent)


def test_point_attack_identical_under_bulk_and_per_page_churn():
    assert_same_world(point_attack)
