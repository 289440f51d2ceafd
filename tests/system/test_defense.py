"""Online defense tests: detect-then-respond, batch parity, thread safety."""

from __future__ import annotations

import threading

import pytest

from repro.common.errors import ConfigError
from repro.common.rng import make_rng
from repro.filters import SuRFBuilder
from repro.system.defense import (
    DefendedService,
    DefensePolicy,
    build_defended_service,
)
from repro.system.detector import MonitoredService, SiphoningDetector
from repro.system.ratelimit import RateLimitedService, RateLimitPolicy
from repro.system.responses import Status
from repro.workloads import (
    ATTACKER_USER,
    OWNER_USER,
    DatasetConfig,
    build_environment,
)


def _env(num_keys=300):
    """A fresh tiny served store (fresh: defense state and clock mutate)."""
    return build_environment(DatasetConfig(
        num_keys=num_keys, key_width=4, seed=5,
        filter_builder=SuRFBuilder(variant="real", suffix_bits=8),
    ))


def _guess_keys(count, seed=9):
    """FindFPK-shaped traffic: random guesses that essentially all miss."""
    rng = make_rng(seed, "defense-guesses")
    return [rng.random_bytes(4) for _ in range(count)]


def _flood(service, user, count=320, seed=9, batch=64):
    """Drive a guessing flood through ``service`` in batches."""
    keys = _guess_keys(count, seed)
    for start in range(0, len(keys), batch):
        service.get_many(user, keys[start:start + batch])


class TestDefensePolicy:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError):
            DefensePolicy(mode="block")

    def test_check_every_must_be_positive(self):
        with pytest.raises(ConfigError):
            DefensePolicy(check_every=0)

    def test_negative_noise_rejected(self):
        with pytest.raises(ConfigError):
            DefensePolicy(noise_max_us=-1.0)


class TestBatchParity:
    """A batched attack must trip exactly the verdict a serial one does."""

    def test_get_many_verdict_equals_scalar_loop(self):
        env = _env()
        serial = MonitoredService(env.service)
        batched = MonitoredService(env.service)
        # Step-3-shaped traffic: one hammered prefix, a sprinkle of hits.
        rng = make_rng(11, "parity")
        keys = []
        for i in range(600):
            if i % 12 == 0:
                keys.append(env.keys[i % len(env.keys)])
            else:
                keys.append(b"\x42\x43" + rng.random_bytes(2))

        for key in keys:
            serial.get(OWNER_USER, key)
        for start in range(0, len(keys), 64):
            batched.get_many(OWNER_USER, keys[start:start + 64])

        serial_verdict = serial.detector.verdict(OWNER_USER)
        batched_verdict = batched.detector.verdict(OWNER_USER)
        assert serial_verdict.flagged
        assert batched_verdict == serial_verdict

    def test_getter_closure_matches_scalar_loop(self):
        env = _env()
        serial = MonitoredService(env.service)
        fast = MonitoredService(env.service)
        keys = _guess_keys(300, seed=12)
        for key in keys:
            serial.get(ATTACKER_USER, key)
        get_one = fast.getter(ATTACKER_USER)
        for key in keys:
            get_one(key)
        assert (fast.detector.verdict(ATTACKER_USER)
                == serial.detector.verdict(ATTACKER_USER))

    def test_writes_are_observed_per_key(self):
        env = _env()
        monitored = MonitoredService(env.service)
        items = [(b"wr:%d" % i, b"v") for i in range(20)]
        monitored.put_many(OWNER_USER, items)
        monitored.put(OWNER_USER, b"wr:one", b"v")
        monitored.delete(OWNER_USER, b"wr:one")
        monitored.delete(OWNER_USER, b"wr:absent")
        verdict = monitored.detector.verdict(OWNER_USER)
        assert verdict.requests_seen == len(items) + 3


class TestDefendedModes:
    def test_observe_flags_but_does_not_punish(self):
        env = _env()
        defended = build_defended_service(env.service, mode="observe")
        _flood(defended, ATTACKER_USER)
        assert ATTACKER_USER in defended.flagged()
        snapshot = defended.defense_snapshot()
        assert snapshot.mode == "observe"
        assert snapshot.escalations == 0
        assert snapshot.noise_injections == 0

    def test_benign_owner_traffic_never_flagged(self):
        env = _env()
        defended = build_defended_service(env.service, mode="observe")
        for start in range(0, 280, 64):
            defended.get_many(OWNER_USER, env.keys[start:start + 64])
        assert defended.flagged() == set()

    def test_flags_are_sticky(self):
        env = _env()
        defended = build_defended_service(env.service, mode="observe")
        _flood(defended, OWNER_USER)
        assert OWNER_USER in defended.flagged()
        # Drain the window back to perfectly healthy traffic...
        for start in range(0, 576, 64):
            defended.get_many(OWNER_USER,
                              [env.keys[(start + i) % len(env.keys)]
                               for i in range(64)])
        assert not defended.detector.verdict(OWNER_USER).flagged
        # ... the defense does not forgive.
        assert OWNER_USER in defended.flagged()

    def test_throttle_escalates_flagged_user_only(self):
        env = _env()
        policy = DefensePolicy(mode="throttle")
        defended = build_defended_service(env.service, policy=policy)
        limiter = defended.service.limiter
        assert isinstance(limiter, RateLimitedService)
        _flood(defended, ATTACKER_USER)
        assert defended.defense_snapshot().escalations == 1
        assert limiter.user_policy(ATTACKER_USER) == policy.penalty
        assert limiter.user_policy(OWNER_USER) == limiter.policy
        # Past the penalty burst, the flagged user's requests stall.
        before = limiter.stalled_requests
        _flood(defended, ATTACKER_USER, count=64, seed=10)
        assert limiter.stalled_requests > before

    def test_throttle_without_limiter_is_a_config_error(self):
        env = _env()
        with pytest.raises(ConfigError):
            DefendedService(env.service, DefensePolicy(mode="throttle"))

    def test_noise_lands_in_flagged_users_negative_lookups(self):
        plain_env = _env()
        noisy_env = _env()
        policy = DefensePolicy(mode="noise", noise_max_us=400.0)
        defended = build_defended_service(noisy_env.service, policy=policy)
        _flood(defended, ATTACKER_USER)
        assert ATTACKER_USER in defended.flagged()

        # The twin environments are bit-identical, so the un-noised
        # elapsed time for one probe key is the plain twin's measurement.
        probe = b"\xfe\xfd\xfc\xfb"
        plain_response, plain_us = plain_env.service.get_timed(
            ATTACKER_USER, probe)
        before = defended.defense_snapshot().noise_injections
        clock_before = noisy_env.clock.now_us
        response, elapsed = defended.get_timed(ATTACKER_USER, probe)
        assert response.status == plain_response.status
        assert plain_us < elapsed <= plain_us + policy.noise_max_us
        # The perturbation is charged to the simulated clock, not just
        # reported: a client-side clock delta would see it too.
        assert noisy_env.clock.now_us - clock_before >= elapsed - 1e-6
        assert defended.defense_snapshot().noise_injections == before + 1

    def test_noise_spares_unflagged_users_and_hits(self):
        env = _env()
        defended = build_defended_service(env.service, mode="noise")
        _flood(defended, ATTACKER_USER)
        before = defended.defense_snapshot().noise_injections
        # Unflagged user missing: no noise.
        defended.get(1234, b"\x00\x01\x02\x03")
        # Flagged user hitting (write own key first as the owner): the
        # OK outcome is never perturbed.
        defended.put(OWNER_USER, b"no:noise", b"v", None)
        assert defended.defense_snapshot().noise_injections == before

    def test_stats_walk_finds_defense_counters(self):
        from repro.server.tcp import collect_stats

        env = _env()
        defended = build_defended_service(env.service, mode="observe")
        _flood(defended, ATTACKER_USER)
        stats = collect_stats(defended)
        assert stats.flagged_users == 1
        assert stats.requests >= 320


class TestDetectorThreadSafety:
    def test_concurrent_observers_lose_nothing(self):
        detector = SiphoningDetector()
        threads = 8
        per_thread = 500
        errors = []

        def observer(index):
            rng = make_rng(index, "threaded-observe")
            try:
                for i in range(per_thread):
                    detector.observe(1, rng.random_bytes(5),
                                     Status.NOT_FOUND)
                    if i % 100 == 0:
                        detector.verdict(1)  # score mid-stream
            except BaseException as exc:  # noqa: BLE001 — surfaced below
                errors.append(exc)

        workers = [threading.Thread(target=observer, args=(i,))
                   for i in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert not errors
        verdict = detector.verdict(1)
        assert verdict.requests_seen == threads * per_thread
        assert verdict.flagged  # all misses: the guessing-phase signature


class TestBackgroundCompactionParity:
    """Defense decisions must not depend on the compaction mode.

    Background compaction changes *when* merge I/O happens (and charges
    none of it to the simulated clock), but the detector keys off request
    patterns, so the flood below must produce identical statuses and
    identical defense decision counters whether compaction runs inline or
    on the background thread.
    """

    def _run(self, mode, background_compaction, style="leveled"):
        env = build_environment(DatasetConfig(
            num_keys=300, key_width=4, seed=5,
            filter_builder=SuRFBuilder(variant="real", suffix_bits=8),
            background_compaction=background_compaction,
        ))
        # The store is bulk-loaded; from here on only the owner's write
        # bursts reach the compactor.  A small memtable makes them flush
        # and merge, in the style under test (put-only, so a tiered
        # merge has no tombstone to drop over the loaded level).
        env.db.options.memtable_size_bytes = 4 * 1024
        env.db.options.compaction_style = style
        defended = build_defended_service(env.service, mode=mode)
        keys = _guess_keys(320)
        statuses = []
        # Interleave owner write bursts (forcing flushes and, in one of
        # the two runs, background compactions) with the guessing flood.
        for start in range(0, len(keys), 64):
            items = [(b"wr%06d" % (start * 8 + i), b"y" * 48)
                     for i in range(64)]
            env.service.put_many(OWNER_USER, items)
            statuses.extend(
                response.status for response in defended.get_many(
                    ATTACKER_USER, keys[start:start + 64]))
        snapshot = defended.defense_snapshot()
        env.db.close()
        assert env.db.leaked_pins == 0
        compactor = env.db._bg_compactor or env.db._compactor
        assert compactor.compactions_run > 0  # the bursts really merged
        return statuses, snapshot

    def _assert_parity(self, mode, style):
        statuses_sync, snap_sync = self._run(mode, False, style)
        statuses_bg, snap_bg = self._run(mode, True, style)
        assert statuses_sync == statuses_bg
        assert snap_sync == snap_bg
        assert snap_bg.flagged_users == 1  # the flood was caught

    @pytest.mark.parametrize("mode", ["throttle", "noise"])
    def test_verdicts_identical_with_and_without_background(self, mode):
        self._assert_parity(mode, "leveled")

    @pytest.mark.parametrize("mode", ["throttle", "noise"])
    def test_tiered_verdicts_identical_with_and_without_background(self,
                                                                   mode):
        self._assert_parity(mode, "tiered")
