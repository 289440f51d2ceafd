"""Attack template tests: selection, dedupe, accounting, progress."""

import pytest

from repro.common.errors import ConfigError
from repro.core.oracle import IdealizedOracle
from repro.core.results import STAGE_EXTEND, STAGE_FIND_FPK, STAGE_ID_PREFIX
from repro.core.surf_attack import SurfAttackStrategy
from repro.core.template import AttackConfig, PrefixSiphoningAttack
from repro.filters.surf.suffix import SuffixScheme, SurfVariant
from repro.workloads.datasets import ATTACKER_USER


def make_attack(env, num_candidates=15_000, max_ext=1 << 16, extend=True,
                dedupe=True):
    oracle = IdealizedOracle(env.service, ATTACKER_USER)
    strategy = SurfAttackStrategy(
        key_width=5, filter_scheme=SuffixScheme(SurfVariant.REAL, 8), seed=3)
    config = AttackConfig(key_width=5, num_candidates=num_candidates,
                          max_extension_queries=max_ext, extend=extend,
                          dedupe_prefixes=dedupe)
    return PrefixSiphoningAttack(oracle, strategy, config)


class TestEndToEnd:
    def test_extracts_only_real_keys(self, surf_env):
        result = make_attack(surf_env).run()
        assert result.num_extracted > 0
        stored = surf_env.key_set
        assert all(e.key in stored for e in result.extracted)

    def test_no_duplicate_extractions(self, surf_env):
        result = make_attack(surf_env).run()
        keys = [e.key for e in result.extracted]
        assert len(keys) == len(set(keys))

    def test_stage_accounting_complete(self, surf_env):
        result = make_attack(surf_env).run()
        assert result.queries_by_stage[STAGE_FIND_FPK] == 15_000
        assert result.queries_by_stage[STAGE_ID_PREFIX] > 0
        assert result.queries_by_stage[STAGE_EXTEND] > 0

    def test_progress_monotone(self, surf_env):
        result = make_attack(surf_env).run()
        queries = [q for q, _ in result.progress]
        keys = [k for _, k in result.progress]
        assert queries == sorted(queries)
        assert keys == sorted(keys)
        assert keys[-1] == result.num_extracted

    def test_sim_duration_positive(self, surf_env):
        assert make_attack(surf_env).run().sim_duration_us > 0


class TestSelection:
    def test_tight_budget_discards_prefixes(self, surf_env):
        generous = make_attack(surf_env, max_ext=1 << 16).run()
        # A 256-query budget keeps only >=4-byte effective prefixes, which
        # are rare: most identified prefixes must be discarded.
        tight = make_attack(surf_env, max_ext=256).run()
        assert tight.prefixes_discarded > generous.prefixes_discarded
        assert tight.num_extracted <= generous.num_extracted

    def test_extend_false_reports_prefixes_only(self, surf_env):
        result = make_attack(surf_env, extend=False).run()
        assert result.num_extracted == 0
        assert result.prefixes_identified
        assert STAGE_EXTEND not in result.queries_by_stage

    def test_dedupe_avoids_repeat_searches(self, surf_env):
        deduped = make_attack(surf_env, dedupe=True).run()
        raw = make_attack(surf_env, dedupe=False).run()
        # Identical FP keys map to identical prefixes; without dedupe the
        # duplicates surface as wasted duplicate-disclosure probes.
        assert raw.total_queries >= deduped.total_queries
        assert raw.num_extracted == deduped.num_extracted


class TestHiddenResponsesWaste(object):
    def test_indistinguishable_failures_block_extension(self, surf_env_hidden):
        result = make_attack(surf_env_hidden, num_candidates=4000).run()
        # Extension probes only ever see FAILED: nothing confirms.
        assert result.num_extracted == 0
        assert result.wasted_queries > 0


class TestConfigValidation:
    def test_bad_config_rejected(self):
        with pytest.raises(ConfigError):
            AttackConfig(key_width=0)
        with pytest.raises(ConfigError):
            AttackConfig(num_candidates=0)
        with pytest.raises(ConfigError):
            AttackConfig(max_extension_queries=0)


class TestFailedAttackReleasesPins:
    def test_service_failure_mid_extension_leaks_no_version_pin(self):
        # Step 3's batches pin a version for their filter prepass; one that
        # raises half-way must still unpin it, or db.close() counts a leak.
        from repro.filters import SuRFBuilder
        from repro.workloads import DatasetConfig, build_environment

        env = build_environment(DatasetConfig(
            num_keys=4000, key_width=5, seed=2,
            filter_builder=SuRFBuilder(variant="real", suffix_bits=8)))
        reads = []
        read_decoded = env.db.cache.read_decoded

        def failing_read(*args, **kwargs):
            # Idealized classification reads no block: every block read
            # is an extension probe that passed its filter.
            reads.append(args[0])
            if len(reads) == 50:
                raise RuntimeError("device went away mid-extension")
            return read_decoded(*args, **kwargs)

        env.db.cache.read_decoded = failing_read
        with pytest.raises(RuntimeError, match="mid-extension"):
            make_attack(env).run()
        assert len(reads) == 50
        env.db.close()
        assert env.db.leaked_pins == 0
