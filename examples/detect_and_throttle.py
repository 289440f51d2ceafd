#!/usr/bin/env python3
"""Defending a store: detect prefix siphoning, then throttle the attacker.

The paper's section 11 offers mitigations that each cost something
(memory, latency, throughput); its conclusion urges evaluating security
impact.  This demo wires the repo's defensive pieces into the response a
production service would actually deploy:

1. a :class:`SiphoningDetector` watches the per-user request stream for
   the attack's signature (near-total misses, prefix-clustered failures);
2. flagged users get a harsh token-bucket rate limit, collapsing the
   attack's throughput while legitimate users stay fast.

Run:  python examples/detect_and_throttle.py
"""

from repro.core import AttackConfig, IdealizedOracle, PrefixSiphoningAttack
from repro.core.surf_attack import SurfAttackStrategy
from repro.filters import SuRFBuilder
from repro.filters.surf import SuffixScheme, SurfVariant
from repro.system import RateLimitedService, RateLimitPolicy, ServiceLayer
from repro.system.detector import MonitoredService
from repro.workloads import ATTACKER_USER, OWNER_USER, DatasetConfig, build_environment

KEY_WIDTH = 5


class DefendedService(ServiceLayer):
    """Monitor everyone; rate-limit whoever the detector flags."""

    def __init__(self, service, attacker_rate=RateLimitPolicy(200.0, burst=16)):
        super().__init__(service)
        self.monitored = MonitoredService(service)
        self.throttled = RateLimitedService(self.monitored, attacker_rate)

    def _route(self, user):
        if self.monitored.detector.verdict(user).flagged:
            return self.throttled
        return self.monitored

    def get(self, user, key):
        return self._route(user).get(user, key)

    def get_timed(self, user, key):
        return self._route(user).get_timed(user, key)

    def getter(self, user):
        # Routed per request, not per closure: a user flagged mid-batch
        # is throttled from the next probe on.
        return lambda key: self.get(user, key)


def main() -> None:
    env = build_environment(DatasetConfig(
        num_keys=15_000, key_width=KEY_WIDTH,
        filter_builder=SuRFBuilder(variant="real", suffix_bits=8)))
    defended = DefendedService(env.service)

    print("running the attack against the defended service...")
    started = env.clock.now_us
    attack = PrefixSiphoningAttack(
        IdealizedOracle(defended, ATTACKER_USER),
        SurfAttackStrategy(KEY_WIDTH, SuffixScheme(SurfVariant.REAL, 8)),
        AttackConfig(key_width=KEY_WIDTH, num_candidates=10_000))
    result = attack.run()
    attack_minutes = (env.clock.now_us - started) / 6e7

    verdict = defended.monitored.detector.verdict(ATTACKER_USER)
    print(f"  detector verdict: flagged={verdict.flagged} ({verdict.reason})")
    print(f"  attacker extracted {result.num_extracted} keys, but the "
          f"throttle stretched the run to {attack_minutes:.1f} simulated "
          f"minutes "
          f"({defended.throttled.stalled_requests:,} stalled requests)")

    print("meanwhile, a legitimate user's experience:")
    total = 0.0
    for key in env.keys[:50]:
        _, elapsed = defended.get_timed(OWNER_USER, key)
        total += elapsed
    print(f"  owner reads still average {total / 50:.1f} simulated "
          f"microseconds — unaffected")
    print("\ndetection does not close the side channel (the paper's point); "
          "it buys the operator time and makes bulk extraction "
          "operationally loud and slow")


if __name__ == "__main__":
    main()
