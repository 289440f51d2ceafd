"""Online prefix-siphoning defense: detect, then respond, while serving.

:class:`~repro.system.detector.SiphoningDetector` only *scores*;
:class:`~repro.system.ratelimit.RateLimitedService` only *slows
everyone*.  This module closes the loop the paper's section 11 sketches:
a serving-path facade that feeds every request outcome to the detector
and, when a user's window trips it, responds — by escalation:

* ``observe`` — score and flag only (the audit-log posture).  Flags are
  visible through STATS; nothing about service behavior changes.
* ``throttle`` — squeeze the flagged user's token bucket to a penalty
  rate via :meth:`RateLimitedService.set_user_policy`.  The side channel
  stays intact but the attack's *duration* explodes; benign users keep
  their normal budget.
* ``noise`` — charge a seeded-random delay to every *negative* lookup
  the flagged user makes.  Prefix siphoning classifies keys by the
  timing gap between filter-negative and filter-positive misses; noise
  an order of magnitude above that gap drowns it, so the oracle's
  learned cutoff starts misclassifying.  Benign users (who mostly hit)
  are untouched.

Flags are sticky: a window that drains back below threshold after the
attacker slows down does not un-flag.  Verdicts are re-scored every
``check_every`` observations per user, not on every request — scoring
walks the whole window, observation is O(1).
"""

from __future__ import annotations

import random
import threading
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.common.errors import ConfigError
from repro.system.detector import SiphoningDetector
from repro.system.ratelimit import RateLimitedService, RateLimitPolicy
from repro.system.responses import Response, Status
from repro.system.service import ServiceLayer

#: Escalation modes, in order of aggressiveness.
DEFENSE_MODES = ("observe", "throttle", "noise")
#: Seed of the noise RNG — simulated time stays reproducible.
NOISE_SEED = 0x5EED


@dataclass(frozen=True)
class DefensePolicy:
    """Knobs for the online response."""

    #: One of :data:`DEFENSE_MODES`.
    mode: str = "observe"
    #: Observations between verdict re-scores per user.  Scoring walks
    #: the detector window; once per request would be quadratic.
    check_every: int = 64
    #: Token-bucket policy imposed on flagged users in ``throttle`` mode.
    penalty: RateLimitPolicy = field(
        default=RateLimitPolicy(requests_per_second=50.0, burst=4))
    #: Upper bound of the uniform per-lookup delay injected on flagged
    #: users' negative lookups in ``noise`` mode (simulated µs).  Sized
    #: to dwarf the filter-negative/positive timing gap (tens of µs).
    noise_max_us: float = 400.0

    def __post_init__(self) -> None:
        if self.mode not in DEFENSE_MODES:
            raise ConfigError(
                f"defense mode must be one of {DEFENSE_MODES}, "
                f"got {self.mode!r}")
        if self.check_every < 1:
            raise ConfigError("check_every must be at least 1")
        if self.noise_max_us < 0:
            raise ConfigError("noise_max_us must be non-negative")


@dataclass(frozen=True)
class DefenseSnapshot:
    """Decision counters, as exposed through STATS."""

    flagged_users: int
    escalations: int
    noise_injections: int
    mode: str


class DefendedService(ServiceLayer):
    """A full-surface :class:`KVService` facade that fights back.

    Wraps any service stack (typically
    ``RateLimitedService(KVService)``); every request outcome — scalar or
    batch, read or write — feeds the detector, and flagged users are
    punished per :class:`DefensePolicy`.  Thread-safe for multi-threaded
    embedders; the wire server's event loop needs no extra care.

    Noise is charged to the simulated clock *inside* the lookup window,
    so both the server-reported elapsed time and any client-side clock
    delta include it — exactly what a defending system's perturbed
    response time would look like to the attacker.
    """

    def __init__(self, service,
                 policy: DefensePolicy = DefensePolicy()) -> None:
        super().__init__(service)
        self.policy = policy
        self.detector = SiphoningDetector()
        if policy.mode == "throttle" and self.limiter is None:
            raise ConfigError(
                "throttle mode needs a RateLimitedService in the stack "
                "(see build_defended_service)")
        self._rng = random.Random(NOISE_SEED)
        self._lock = threading.Lock()
        self._since_check: Dict[int, int] = {}
        self._flagged: Set[int] = set()
        self._escalations = 0
        self._noise_injections = 0

    # ------------------------------------------------------------- decisions

    def _observe(self, user: int, key: bytes, status: Status) -> None:
        self.detector.observe(user, key, status)
        with self._lock:
            count = self._since_check.get(user, 0) + 1
            if count < self.policy.check_every or user in self._flagged:
                self._since_check[user] = count
                return
            self._since_check[user] = 0
        if not self.detector.verdict(user).flagged:
            return
        escalate = False
        with self._lock:
            if user not in self._flagged:
                self._flagged.add(user)
                escalate = (self.policy.mode == "throttle"
                            and self.limiter is not None)
                if escalate:
                    self._escalations += 1
        if escalate:
            self.limiter.set_user_policy(user, self.policy.penalty)

    def _noise_for(self, user: int, status: Status) -> float:
        """Charge (and return) noise for one lookup outcome, maybe zero."""
        if self.policy.mode != "noise" or status is Status.OK:
            return 0.0
        with self._lock:
            if user not in self._flagged:
                return 0.0
            noise = self._rng.random() * self.policy.noise_max_us
            self._noise_injections += 1
        self.db.clock.charge(noise)
        return noise

    def flagged(self) -> Set[int]:
        """The sticky set of users the defense has flagged."""
        with self._lock:
            return set(self._flagged)

    def defense_snapshot(self) -> DefenseSnapshot:
        """Decision counters for STATS aggregation."""
        with self._lock:
            return DefenseSnapshot(
                flagged_users=len(self._flagged),
                escalations=self._escalations,
                noise_injections=self._noise_injections,
                mode=self.policy.mode,
            )

    def stats_fields(self) -> Counter:
        """The wrapped stack's STATS counters plus the decision counters."""
        fields = self.service.stats_fields()
        defense = self.defense_snapshot()
        fields["flagged_users"] += defense.flagged_users
        fields["throttle_escalations"] += defense.escalations
        fields["noise_injections"] += defense.noise_injections
        return fields

    # ------------------------------------------------------------------ reads

    def get(self, user: int, key: bytes) -> Response:
        """Defended point request."""
        response = self.service.get(user, key)
        self._observe(user, key, response.status)
        self._noise_for(user, response.status)
        return response

    def get_timed(self, user: int, key: bytes) -> Tuple[Response, float]:
        """Defended timed point request; noise lands in the elapsed time."""
        response, elapsed = self.service.get_timed(user, key)
        self._observe(user, key, response.status)
        elapsed += self._noise_for(user, response.status)
        return response, elapsed

    def getter(self, user: int) -> Callable[[bytes], Response]:
        """Fast-path closure: observation + noise per call.

        Noise charges the clock inside the call, so callers that time
        around the closure (``get_many_timed``, the oracles) see it.
        """
        get_one = self.service.getter(user)
        observe = self._observe
        noise = self._noise_for

        def defended_get(key: bytes) -> Response:
            response = get_one(key)
            observe(user, key, response.status)
            noise(user, response.status)
            return response

        return defended_get

    def get_many(self, user: int, keys: Sequence[bytes]) -> List[Response]:
        """Defended batch read."""
        keys = list(keys)
        responses = self.service.get_many(user, keys)
        for key, response in zip(keys, responses):
            self._observe(user, key, response.status)
            self._noise_for(user, response.status)
        return responses

    def get_many_timed(self, user: int, keys: Sequence[bytes]
                       ) -> List[Tuple[Response, float]]:
        """Defended batch timed read; per-key noise lands in each time.

        Delegates to the wrapped stack's timed batch so a rate limiter's
        stalls stay *excluded* from the measurement (throttling slows the
        attacker down without touching the side channel), then adds the
        noise perturbation — the one defense that is *meant* to show up
        in response times — on top.
        """
        keys = list(keys)
        timed = self.service.get_many_timed(user, keys)
        out: List[Tuple[Response, float]] = []
        for key, (response, elapsed) in zip(keys, timed):
            self._observe(user, key, response.status)
            out.append((response,
                        elapsed + self._noise_for(user, response.status)))
        return out

    def range_query(self, user: int, low: bytes, high: bytes,
                    limit: Optional[int] = None):
        """Defended range request (emptiness observed as a miss)."""
        out = self.service.range_query(user, low, high, limit=limit)
        self._observe(user, low, Status.OK if out else Status.NOT_FOUND)
        return out

    def range_query_timed(self, user: int, low: bytes, high: bytes,
                          limit: Optional[int] = None):
        """Defended timed range request."""
        out, elapsed = self.service.range_query_timed(user, low, high,
                                                      limit=limit)
        self._observe(user, low, Status.OK if out else Status.NOT_FOUND)
        return out, elapsed

    # ----------------------------------------------------------------- writes

    def put(self, user: int, key: bytes, payload: bytes,
            acl=None) -> Response:
        """Defended write."""
        response = self.service.put(user, key, payload, acl)
        self._observe(user, key, response.status)
        return response

    def put_timed(self, user: int, key: bytes, payload: bytes,
                  acl=None) -> Tuple[Response, float]:
        """Defended timed write."""
        response, elapsed = self.service.put_timed(user, key, payload, acl)
        self._observe(user, key, response.status)
        return response, elapsed

    def put_many(self, user: int, items, acl=None) -> List[Response]:
        """Defended batch write, one observation per record."""
        items = list(items)
        responses = self.service.put_many(user, items, acl)
        for (key, _), response in zip(items, responses):
            self._observe(user, key, response.status)
        return responses

    def put_many_timed(self, user: int, items,
                       acl=None) -> Tuple[List[Response], float]:
        """Defended timed batch write, one observation per record."""
        items = list(items)
        responses, elapsed = self.service.put_many_timed(user, items, acl)
        for (key, _), response in zip(items, responses):
            self._observe(user, key, response.status)
        return responses, elapsed

    def delete(self, user: int, key: bytes) -> Response:
        """Defended delete."""
        response = self.service.delete(user, key)
        self._observe(user, key, response.status)
        return response

    def delete_timed(self, user: int, key: bytes) -> Tuple[Response, float]:
        """Defended timed delete."""
        response, elapsed = self.service.delete_timed(user, key)
        self._observe(user, key, response.status)
        return response, elapsed


#: Permissive base limit inserted under throttle mode when the stack has
#: no limiter of its own: effectively unthrottled until escalation.
BASE_LIMIT = RateLimitPolicy(requests_per_second=1e6, burst=4096)


def build_defended_service(service, mode: str = "observe",
                           policy: Optional[DefensePolicy] = None
                           ) -> DefendedService:
    """Wrap ``service`` for online defense, completing the stack.

    ``throttle`` mode needs a per-user escalation lever; if the stack has
    no :class:`RateLimitedService`, one is inserted with ``BASE_LIMIT``
    (permissive enough to be invisible to benign traffic).
    ``policy`` overrides ``mode`` when given.
    """
    policy = policy or DefensePolicy(mode=mode)
    if policy.mode == "throttle" and service.limiter is None:
        service = RateLimitedService(service, BASE_LIMIT)
    return DefendedService(service, policy=policy)
