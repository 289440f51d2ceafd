"""Attack equivalence under churn: a frozen snapshot is a quiesced store.

The MVCC claim, stated as the paper's experiment: running the full prefix
siphoning pipeline against a *snapshot* of the store while a writer
stream and background compaction churn the live tree must extract the
same keys, issue the same per-stage query counts, and observe
**bit-identical** simulated time as the same attack against the same
snapshot of an untouched twin.  Concurrency may only change wall-clock —
never the side channel.

This is the strongest available check that the copy-on-install version
set, region pinning and per-snapshot determinism channels (clock, RNG
streams, private page cache) leak nothing across the snapshot boundary
in either direction.
"""

import threading

from repro.common.rng import make_rng
from repro.core import (
    AttackConfig,
    PrefixSiphoningAttack,
    SurfAttackStrategy,
    TimingOracle,
    learn_cutoff,
)
from repro.filters import SuRFBuilder
from repro.filters.surf import SuffixScheme, SurfVariant
from repro.storage.background import BackgroundLoad
from repro.system.service import KVService
from repro.workloads import ATTACKER_USER, OWNER_USER, DatasetConfig, build_environment

WIDTH = 5


def build_env():
    return build_environment(DatasetConfig(
        num_keys=3000, key_width=WIDTH, seed=31,
        filter_builder=SuRFBuilder(variant="real", suffix_bits=8),
        background_compaction=True,
    ))


def attack_snapshot(env, snap):
    """Run the full pipeline against a KVService over ``snap``."""
    service = KVService(snap, env.config.distinguish_unauthorized)
    background = BackgroundLoad(snap.cache, env.background.model,
                                make_rng(env.config.seed, "snapshot-load"))
    learning = learn_cutoff(service, ATTACKER_USER, WIDTH,
                            num_samples=1200, background=background)
    oracle = TimingOracle(service, ATTACKER_USER,
                          cutoff_us=learning.cutoff_us, rounds=3,
                          background=background, wait_us=100_000.0)
    strategy = SurfAttackStrategy(
        WIDTH, SuffixScheme(SurfVariant.REAL, 8), seed=32)
    result = PrefixSiphoningAttack(
        oracle, strategy,
        AttackConfig(key_width=WIDTH, num_candidates=4000)).run()
    return learning, result


def churn(env, stop, failures):
    """Owner-side write stream: overwrites that force flushes and keep
    the background compactor busy for the whole attack."""
    try:
        batch_id = 0
        while not stop.is_set():
            items = [(b"churn-%06d" % ((batch_id * 64 + i) % 4096),
                      b"x" * 64) for i in range(64)]
            env.service.put_many(OWNER_USER, items)
            batch_id += 1
    except BaseException as exc:  # pragma: no cover - failure path
        failures.append(exc)


def watch_background_compaction(db):
    """An event set after the first background cycle that has installed
    a compaction (the compactor thread looks its work up each cycle)."""
    compacted = threading.Event()
    background = db._background
    work = background._work

    def watched_work():
        work()
        if db.compactions_run:
            compacted.set()

    background._work = watched_work
    return compacted


class TestConcurrentAttackEquivalence:
    def test_attack_under_churn_is_bit_identical_to_quiesced(self):
        # Quiesced twin: same build, same snapshot point, no churn.
        env_q = build_env()
        snap_q = env_q.db.snapshot()
        learn_q, result_q = attack_snapshot(env_q, snap_q)
        snap_q.close()
        env_q.db.close()

        # Live run: snapshot first, then start the writer and attack
        # concurrently with flushes + background compactions.  The attack
        # starts only once a background cycle has installed a compaction,
        # so the churn under the snapshot is certain, not a matter of how
        # much GIL time the writer got.
        env_l = build_env()
        snap_l = env_l.db.snapshot()
        compacted = watch_background_compaction(env_l.db)
        stop = threading.Event()
        failures = []
        writer = threading.Thread(target=churn,
                                  args=(env_l, stop, failures))
        writer.start()
        try:
            assert compacted.wait(timeout=120) or failures, failures
            learn_l, result_l = attack_snapshot(env_l, snap_l)
        finally:
            stop.set()
            writer.join(timeout=120)
        assert not writer.is_alive() and not failures, failures

        # The live tree actually churned underneath the snapshot.
        assert env_l.db._bg_compactor.compactions_run > 0, \
            "churn never triggered background compaction"
        assert env_l.db.get(b"churn-000000") is not None

        # Learning: identical cutoff and per-query samples.
        assert learn_l.cutoff_us == learn_q.cutoff_us
        assert learn_l.samples == learn_q.samples

        # Attack: identical disclosures, per-stage accounting, and
        # bit-identical simulated time.
        assert ([e.key for e in result_l.extracted]
                == [e.key for e in result_q.extracted])
        assert result_l.queries_by_stage == result_q.queries_by_stage
        assert result_l.stage_durations_us == result_q.stage_durations_us
        assert result_l.sim_duration_us == result_q.sim_duration_us
        assert len(result_l.extracted) > 0  # attack really disclosed keys

        # And the snapshot really fed off a frozen world: the churn keys
        # are invisible to it.
        assert snap_l.get(b"churn-000000") is None
        snap_l.close()
        env_l.db.close()
        assert env_l.db.leaked_pins == 0
