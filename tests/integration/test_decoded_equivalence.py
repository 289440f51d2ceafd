"""Decoded-block cache equivalence: simulated time must not move.

The decoded-object memo in :class:`~repro.storage.page_cache.PageCache`
is a wall-clock optimization.  The attack's signal lives entirely in
*simulated* time, so the whole pipeline — learning, timing classification,
prefix extension — must produce bit-identical results whether the memo
keeps entries or not.  These tests run the same seeded attack twice, once
over a cache whose memo never keeps an entry, and compare every
observable: the learned cutoff, every per-query latency sample, the
extracted keys, the per-stage query counts, and the final simulated clock.
"""

from unittest import mock

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
from repro.storage.page_cache import PageCache
from repro.workloads import ATTACKER_USER, DatasetConfig, build_environment
from repro.workloads import datasets

WIDTH = 5


class KeepNothingCache(PageCache):
    """A page cache whose decoded memo never keeps an entry: every
    ``read_decoded`` decodes afresh, byte for byte what a plain ``read``
    caller did."""

    def _keep(self, key, first, stop, obj):
        pass


def build_env(decoded=True):
    config = DatasetConfig(
        num_keys=4000, key_width=WIDTH, seed=77,
        filter_builder=SuRFBuilder(variant="real", suffix_bits=8),
    )
    if decoded:
        return build_environment(config)
    with mock.patch.object(datasets, "PageCache", KeepNothingCache):
        env = build_environment(config)
    assert type(env.cache) is KeepNothingCache
    return env


def run_attack(env, num_samples=1500, num_candidates=6000):
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


def stored_key_sweep(env):
    """Probe real stored keys twice over: forces filter-positive reads
    through the data path (first pass fills, second pass hits)."""
    keys = env.keys[::37] * 2
    return env.service.get_many_timed(ATTACKER_USER, keys)


class TestDecodedCacheEquivalence:
    def test_simulated_trace_identical_on_and_off(self):
        env_on = build_env()                # the product cache
        env_off = build_env(decoded=False)  # every read decodes afresh
        learn_on, result_on = run_attack(env_on)
        learn_off, result_off = run_attack(env_off)
        sweep_on = stored_key_sweep(env_on)
        sweep_off = stored_key_sweep(env_off)

        # Learning: identical cutoff and identical per-query latencies.
        assert learn_on.cutoff_us == learn_off.cutoff_us
        assert learn_on.samples == learn_off.samples

        # Attack: identical disclosures, query accounting, simulated time.
        assert ([e.key for e in result_on.extracted]
                == [e.key for e in result_off.extracted])
        assert result_on.queries_by_stage == result_off.queries_by_stage
        assert result_on.sim_duration_us == result_off.sim_duration_us

        # Stored-key sweep: identical statuses and latencies even while
        # the product run serves repeats from the decoded memo.
        assert [(r.status, t) for r, t in sweep_on] \
            == [(r.status, t) for r, t in sweep_off]
        assert env_on.clock.now_us == env_off.clock.now_us

        # The product run actually exercised the memo; page-level traffic
        # stayed identical regardless.
        assert env_on.cache.stats.decoded_hits > 0
        assert env_off.cache.stats.decoded_hits == 0
        assert env_on.cache.stats.hits == env_off.cache.stats.hits
        assert env_on.cache.stats.misses == env_off.cache.stats.misses

    def test_batch_get_matches_sequential(self):
        # get_many_timed over one environment must equal get_timed over a
        # twin: same statuses, same latencies, same final clock.  Mix
        # stored keys (positive path: device reads) with misses.
        env_a, env_b = build_env(), build_env()
        probe_keys = []
        for i, stored in enumerate(env_a.keys[::67]):
            probe_keys.append(stored)
            probe_keys.append(bytes([i % 251, 2 * i % 251, 7, 77, i % 13]))
        batched = env_a.service.get_many_timed(ATTACKER_USER, probe_keys)
        sequential = [env_b.service.get_timed(ATTACKER_USER, key)
                      for key in probe_keys]
        assert [(r.status, t) for r, t in batched] \
            == [(r.status, t) for r, t in sequential]
        assert env_a.clock.now_us == env_b.clock.now_us
        assert env_a.cache.stats.misses > 0


class TestCompactionInvalidation:
    def test_compaction_never_serves_stale_decoded_blocks(self):
        options = LSMOptions(
            memtable_size_bytes=8 * 1024,
            sstable_target_bytes=8 * 1024,
            l0_compaction_trigger=3,
            page_cache_bytes=256 * 1024,
        )
        db = LSMTree(options)
        items = {bytes([i % 251, i // 251, 3, 4, 5]): b"v%d" % i
                 for i in range(2500)}
        for key, value in items.items():
            db.put(key, value)
        keys = sorted(items)
        for key in keys[::17]:
            assert db.get(key) == items[key]
        assert db.cache.decoded_entries > 0

        db.compact_all()

        # No decoded entry may reference a file compaction deleted.
        live = {table.path for level in db.version.levels for table in level}
        cached_paths = {key[0] for key in db.cache._decoded}
        assert cached_paths <= live

        # And reads after compaction return current values.
        for key in keys[::13]:
            assert db.get(key) == items[key]
