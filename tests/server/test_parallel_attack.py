"""The concurrency guarantee: parallel wire attack == serial in-process.

Two identically-seeded environments, one attacked serially in-process and
one attacked over loopback with 4 concurrent connections.  The ordered
gate must make the parallel run's classification *bit-identical* (same
verdicts, same simulated timeline), and the full attack must extract
exactly the same key set — ISSUE acceptance criterion.
"""

from __future__ import annotations

import pytest

from repro.common.rng import make_rng
from repro.core import (
    AttackConfig,
    ParallelTimingOracle,
    PrefixSiphoningAttack,
    SurfAttackStrategy,
    TimingOracle,
    learn_cutoff,
    run_parallel_surf_attack,
)
from repro.filters import SuRFBuilder
from repro.filters.surf import SuffixScheme, SurfVariant
from repro.server import AsyncLoopbackTransport
from repro.workloads import ATTACKER_USER, DatasetConfig, build_environment


def _twin_env(num_keys=8000, key_width=5):
    """A fresh environment; same args == bit-identical simulated system."""
    return build_environment(DatasetConfig(
        num_keys=num_keys, key_width=key_width, seed=2,
        filter_builder=SuRFBuilder(variant="real", suffix_bits=8),
    ))


class TestClassificationEquality:
    @pytest.mark.wire_deadline(120)
    def test_sharded_classify_is_bit_identical(self):
        """Same verdicts AND same simulated timeline as the serial oracle."""
        probe_rng = make_rng(7, "probe-keys")
        keys = [probe_rng.random_bytes(4) for _ in range(300)]

        env_serial = _twin_env(num_keys=2000, key_width=4)
        serial = TimingOracle(env_serial.service, ATTACKER_USER,
                              cutoff_us=25.0, rounds=4,
                              background=env_serial.background,
                              wait_us=50_000)
        serial_verdicts = serial.classify(keys)

        env_parallel = _twin_env(num_keys=2000, key_width=4)
        with AsyncLoopbackTransport(
                env_parallel.service,
                background=env_parallel.background) as transport:
            pool = transport.pool(4)
            parallel = ParallelTimingOracle(pool, ATTACKER_USER,
                                            cutoff_us=25.0, rounds=4,
                                            wait_us=50_000, batch_limit=32)
            parallel_verdicts = parallel.classify(keys)
            pool.close()

        assert parallel_verdicts == serial_verdicts
        # The ordered gate replays the serial execution order, so the one
        # simulated clock lands on exactly the same microsecond.
        assert env_parallel.clock.now_us == env_serial.clock.now_us
        assert parallel.counter.total == serial.counter.total


SCHEME = SuffixScheme(SurfVariant.REAL, 8)
CONFIG = AttackConfig(key_width=5, num_candidates=12_000)


def _parallel_attack():
    """The full three-step attack over 4 loopback connections, on a fresh
    twin environment."""
    env = _twin_env()
    with AsyncLoopbackTransport(env.service,
                                background=env.background) as transport:
        pool = transport.pool(4)
        outcome = run_parallel_surf_attack(
            pool, ATTACKER_USER, 5, SCHEME, config=CONFIG, seed=0,
            rounds=4, learn_samples=6000, wait_us=100_000)
        pool.close()
    return outcome


@pytest.fixture(scope="module")
def parallel_outcome():
    return _parallel_attack()


class TestFullAttackEquality:
    @pytest.mark.wire_deadline(300)
    def test_parallel_loopback_extracts_identical_key_set(
            self, parallel_outcome):
        env_serial = _twin_env()
        learning = learn_cutoff(env_serial.service, ATTACKER_USER, 5,
                                num_samples=6000, seed=0,
                                background=env_serial.background)
        serial_result = PrefixSiphoningAttack(
            TimingOracle(env_serial.service, ATTACKER_USER,
                         cutoff_us=learning.cutoff_us, rounds=4,
                         background=env_serial.background, wait_us=100_000),
            SurfAttackStrategy(5, SCHEME, mode="truncate", seed=0),
            CONFIG).run()
        parallel_result = parallel_outcome.result

        serial_keys = {e.key for e in serial_result.extracted}
        parallel_keys = {e.key for e in parallel_result.extracted}
        # The attack actually works at this scale...
        assert len(serial_keys) >= 1
        assert serial_keys <= env_serial.key_set
        # ... and 4-way concurrency changes nothing about the outcome.
        assert parallel_keys == serial_keys
        assert parallel_outcome.learning.cutoff_us == learning.cutoff_us
        assert parallel_outcome.connections == 4
        # Chunked extension may overshoot past a hit, never undershoot.
        assert parallel_result.total_queries >= serial_result.total_queries

    @pytest.mark.wire_deadline(300)
    def test_parallel_attack_repeats_identically(self, parallel_outcome):
        """A second 4-connection run on a twin environment: thread and
        socket scheduling are invisible to the simulated timeline."""
        first, second = parallel_outcome, _parallel_attack()
        assert ({e.key for e in second.result.extracted}
                == {e.key for e in first.result.extracted})
        assert second.learning.cutoff_us == first.learning.cutoff_us
        assert (second.result.queries_by_stage
                == first.result.queries_by_stage)
        # The gated stages replay one pinned execution order, so their
        # simulated durations are bit-identical.  Step-3 extension runs
        # candidates concurrently on separate streams by design, so its
        # duration is interleave-dependent; it must still agree to well
        # under a percent.
        for stage in ("find_fpk", "id_prefix"):
            assert (second.result.stage_durations_us[stage]
                    == first.result.stage_durations_us[stage])
        assert second.result.sim_duration_us == pytest.approx(
            first.result.sim_duration_us, rel=5e-3)
