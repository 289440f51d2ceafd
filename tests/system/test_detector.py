"""Prefix-siphoning detector tests: attacks flagged, benign traffic not."""

from repro.common.rng import make_rng
from repro.core.oracle import IdealizedOracle
from repro.core.surf_attack import SurfAttackStrategy
from repro.core.template import AttackConfig, PrefixSiphoningAttack
from repro.filters.surf.suffix import SuffixScheme, SurfVariant
from repro.system.detector import MonitoredService, SiphoningDetector
from repro.system.responses import Status
from repro.workloads.datasets import ATTACKER_USER, OWNER_USER


class TestScoringPrimitives:
    def test_insufficient_data(self):
        detector = SiphoningDetector()
        detector.observe(1, b"\x01" * 5, Status.NOT_FOUND)
        verdict = detector.verdict(1)
        assert not verdict.flagged
        assert verdict.reason == "insufficient data"

    def test_benign_mixed_traffic_unflagged(self):
        # The paper's background load: 50% present keys, 50% misses.
        detector = SiphoningDetector()
        rng = make_rng(70, "benign")
        for i in range(600):
            ok = i % 2 == 0
            detector.observe(1, rng.random_bytes(5),
                             Status.OK if ok else Status.NOT_FOUND)
        assert not detector.verdict(1).flagged

    def test_extreme_miss_ratio_flagged(self):
        # FindFPK's signature: essentially everything misses.
        detector = SiphoningDetector()
        rng = make_rng(71, "guessing")
        for _ in range(600):
            detector.observe(1, rng.random_bytes(5), Status.NOT_FOUND)
        verdict = detector.verdict(1)
        assert verdict.flagged
        assert "guessing" in verdict.reason

    def test_clustered_misses_flagged_below_extreme(self):
        # Step-3 extension's signature: one prefix, thousands of siblings,
        # mixed with a sprinkle of successes to stay below the extreme bar.
        detector = SiphoningDetector()
        rng = make_rng(72, "extension")
        prefix = b"\x42\x43\x44"
        for i in range(600):
            if i % 12 == 0:
                detector.observe(1, rng.random_bytes(5), Status.OK)
            else:
                detector.observe(1, prefix + rng.random_bytes(2),
                                 Status.NOT_FOUND)
        verdict = detector.verdict(1)
        assert verdict.flagged
        assert verdict.lcp_excess > 1.0

    def test_unfocused_misses_at_90_percent_unflagged(self):
        # High-miss but uniform keys (e.g. a buggy batch job) should not
        # trip the clustering rule below the extreme threshold.
        detector = SiphoningDetector()
        rng = make_rng(73, "buggy")
        for i in range(600):
            if i % 12 == 0:
                detector.observe(1, rng.random_bytes(5), Status.OK)
            else:
                detector.observe(1, rng.random_bytes(5), Status.NOT_FOUND)
        assert not detector.verdict(1).flagged

    def test_per_user_isolation(self):
        detector = SiphoningDetector()
        rng = make_rng(74, "multi")
        for _ in range(600):
            detector.observe(1, rng.random_bytes(5), Status.NOT_FOUND)
            detector.observe(2, rng.random_bytes(5), Status.OK)
        assert detector.flagged_users() == [1]


class TestAgainstRealAttack:
    def test_point_attack_is_flagged(self, surf_env):
        monitored = MonitoredService(surf_env.service)
        oracle = IdealizedOracle(monitored, ATTACKER_USER)
        strategy = SurfAttackStrategy(
            5, SuffixScheme(SurfVariant.REAL, 8), seed=75)
        PrefixSiphoningAttack(oracle, strategy, AttackConfig(
            key_width=5, num_candidates=4000)).run()
        assert ATTACKER_USER in monitored.detector.flagged_users()

    def test_owner_traffic_not_flagged(self, surf_env):
        monitored = MonitoredService(surf_env.service)
        for key in surf_env.keys[:600]:
            monitored.get(OWNER_USER, key)
        assert OWNER_USER not in monitored.detector.flagged_users()

    def test_monitored_surface_transparent(self, surf_env):
        monitored = MonitoredService(surf_env.service)
        key = surf_env.keys[0]
        assert monitored.get(OWNER_USER, key).ok
        response, elapsed = monitored.get_timed(ATTACKER_USER, key)
        assert response.status is Status.UNAUTHORIZED and elapsed > 0
        out, elapsed = monitored.range_query_timed(OWNER_USER, key, key)
        assert out and elapsed > 0
