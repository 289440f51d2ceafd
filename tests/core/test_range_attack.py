"""Range-descent attack tests (the section-11 anticipated attack)."""

import pytest

from repro.common.errors import ConfigError
from repro.core.range_attack import (
    IdealizedRangeOracle,
    RangeAttackConfig,
    RangeDescentAttack,
    TimingRangeOracle,
)
from repro.filters import (
    PrefixBloomFilterBuilder,
    RosettaFilterBuilder,
    SuRFBuilder,
)
from repro.workloads import ATTACKER_USER, DatasetConfig, build_environment


def build_env(filter_builder, num_keys=3000, key_width=4, seed=80):
    return build_environment(DatasetConfig(
        num_keys=num_keys, key_width=key_width, seed=seed,
        filter_builder=filter_builder))


def run_descent(env, **config_overrides):
    defaults = dict(key_width=env.config.key_width, max_keys=15,
                    max_queries=2_000_000)
    defaults.update(config_overrides)
    oracle = IdealizedRangeOracle(env.service, ATTACKER_USER)
    return RangeDescentAttack(oracle, RangeAttackConfig(**defaults)).run()


class TestAgainstSurf:
    @pytest.fixture(scope="class")
    def env(self):
        return build_env(SuRFBuilder(variant="real", suffix_bits=8))

    def test_enumerates_real_keys_in_order(self, env):
        result = run_descent(env)
        assert len(result.keys) == 15
        assert all(k in env.key_set for k in result.keys)
        assert result.keys == sorted(result.keys)
        # Lexicographic enumeration: these are the dataset's smallest keys
        # (up to extension-feasibility skips).
        assert set(result.keys) <= set(env.keys[:40])

    def test_prefixes_are_true_prefixes(self, env):
        result = run_descent(env)
        good = sum(1 for p in result.prefixes_found
                   if any(k.startswith(p) for k in env.keys))
        assert good >= 0.9 * len(result.prefixes_found)

    def test_base_variant_also_enumerable(self):
        env = build_env(SuRFBuilder(variant="base"))
        result = run_descent(env, max_keys=10)
        assert len(result.keys) >= 5
        assert all(k in env.key_set for k in result.keys)

    def test_query_budget_respected(self, env):
        result = run_descent(env, max_keys=None, max_queries=5_000)
        assert result.exhausted_budget
        assert result.total_queries <= 5_100  # small overshoot tolerated

    def test_start_prefix_restricts_descent(self, env):
        target = env.keys[len(env.keys) // 2]
        result = run_descent(env, start_prefix=target[:1], max_keys=5)
        assert result.keys
        assert all(k[:1] == target[:1] for k in result.keys)


class TestAgainstRosetta:
    def test_defeats_rosetta(self):
        # Rosetta blocks the *point* attack (C1 fails) but resolves range
        # queries at full depth, so the descent reads out exact keys —
        # section 11's warning realized.
        env = build_env(RosettaFilterBuilder(key_bytes=4,
                                             bits_per_key_per_level=8.0),
                        num_keys=2000)
        result = run_descent(env)
        assert len(result.keys) == 15
        assert all(k in env.key_set for k in result.keys)
        # No pruning ambiguity: essentially no extension probes needed.
        assert result.point_queries < 40 * len(result.keys)


class TestAgainstPbf:
    def test_pbf_stalls_the_descent(self):
        # The PBF answers only within-prefix ranges and passes everything
        # wider, so level-1/2 tests are all ambiguous-positive and the
        # verification rejects: a budget-bounded run extracts ~nothing.
        env = build_env(PrefixBloomFilterBuilder(prefix_len=3), num_keys=2000)
        result = run_descent(env, max_queries=60_000)
        assert len(result.keys) <= 2


class TestTimingRangeOracle:
    def test_matches_idealized_on_ranges(self):
        env = build_env(SuRFBuilder(variant="real", suffix_bits=8))
        from repro.core import learn_cutoff
        learning = learn_cutoff(env.service, ATTACKER_USER,
                                env.config.key_width, num_samples=4000,
                                background=env.background)
        timing = TimingRangeOracle(env.service, ATTACKER_USER,
                                   cutoff_us=learning.cutoff_us,
                                   background=env.background,
                                   wait_us=50_000.0)
        ideal = IdealizedRangeOracle(env.service, ATTACKER_USER)
        from repro.common.rng import make_rng
        rng = make_rng(81, "ranges")
        agree = 0
        total = 120
        for _ in range(total):
            prefix = rng.random_bytes(2)
            low = prefix + b"\x00\x00"
            high = prefix + b"\xff\xff"
            if timing.range_may_contain(low, high) == \
                    ideal.range_may_contain(low, high):
                agree += 1
        assert agree / total > 0.95

    def test_invalid_config(self):
        env = build_env(SuRFBuilder(variant="real"), num_keys=100)
        with pytest.raises(ConfigError):
            TimingRangeOracle(env.service, ATTACKER_USER, cutoff_us=0.0)


class TestConfig:
    def test_invalid(self):
        with pytest.raises(ConfigError):
            RangeAttackConfig(key_width=0)
        with pytest.raises(ConfigError):
            RangeAttackConfig(key_width=3, start_prefix=b"abc")
