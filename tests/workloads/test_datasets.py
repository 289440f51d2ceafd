"""Experiment environment construction tests."""

import gc
import tracemalloc

import pytest

from repro.common.errors import ConfigError
from repro.filters import SuRFBuilder
from repro.system.responses import Status
from repro.workloads.datasets import (
    ATTACKER_USER,
    OWNER_USER,
    DatasetConfig,
    build_environment,
)


class TestConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            DatasetConfig(num_keys=0)
        with pytest.raises(ConfigError):
            DatasetConfig(key_width=0)
        with pytest.raises(ConfigError):
            DatasetConfig(cache_fraction=0.0)


class TestEnvironment:
    def test_owner_can_read_attacker_cannot(self, surf_env):
        key = surf_env.keys[0]
        assert surf_env.service.get(OWNER_USER, key).ok
        assert (surf_env.service.get(ATTACKER_USER, key).status
                is Status.UNAUTHORIZED)

    def test_all_keys_stored(self, surf_env):
        for key in surf_env.keys[::997]:
            assert surf_env.db.get(key) is not None

    def test_cache_smaller_than_dataset(self, surf_env):
        dataset_bytes = sum(t.size_bytes
                            for t in surf_env.db.version.all_tables())
        assert surf_env.cache.capacity_bytes < dataset_bytes / 5

    def test_deterministic_by_seed(self):
        env1 = build_environment(DatasetConfig(num_keys=200, seed=9))
        env2 = build_environment(DatasetConfig(num_keys=200, seed=9))
        assert env1.keys == env2.keys

    def test_key_set_property(self, surf_env):
        assert len(surf_env.key_set) == surf_env.config.num_keys


class TestBuildMemory:
    def test_build_holds_no_more_than_a_few_tables_beyond_the_store(self):
        # The values stream into bulk_load, so what the build allocates
        # beyond what the environment keeps is about one table's records
        # plus that table's build.  Measured at 20k keys: ~0.8 MB
        # streaming, ~5.1 MB when every record was materialized first.
        gc.collect()
        tracemalloc.start()
        try:
            env = build_environment(DatasetConfig(
                num_keys=20_000, key_width=5, seed=0,
                filter_builder=SuRFBuilder("real", 8)))
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert env.db.version.total_tables() > 10
        assert peak - retained < 2_000_000
